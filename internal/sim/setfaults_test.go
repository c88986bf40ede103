package sim

// SetFaults is the mid-flight fault-plan swap that internal/serve's mutate
// endpoint rides on. The contract: swapping between days keeps the run
// valid, moves the config hash with the plan (checkpoints pin the plan that
// was live when they were written), and disabling a plan clears whatever
// sensor corruption it left applied.

import (
	"bytes"
	"strings"
	"testing"

	"github.com/green-dc/baat/internal/faults"
)

func chaosConfig(t *testing.T) faults.Config {
	t.Helper()
	fcfg, err := faults.Profile("chaos", 0)
	if err != nil {
		t.Fatal(err)
	}
	return fcfg
}

// TestSetFaultsMidRun swaps a clean run onto the chaos plan after two days:
// the run keeps stepping, the config hash moves to the faulted
// configuration, and a post-swap checkpoint resumes only into a simulator
// built with the new plan.
func TestSetFaultsMidRun(t *testing.T) {
	s := goldenSim(t, nil)
	weathers := goldenWeather()
	for _, w := range weathers[:2] {
		if _, err := s.RunDay(w); err != nil {
			t.Fatal(err)
		}
	}
	cleanHash, err := s.ConfigHash()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaults(chaosConfig(t)); err != nil {
		t.Fatal(err)
	}
	swappedHash, err := s.ConfigHash()
	if err != nil {
		t.Fatal(err)
	}
	if swappedHash == cleanHash {
		t.Fatal("config hash unchanged by a fault-plan swap; checkpoints would silently cross plans")
	}
	for _, w := range weathers[2:4] {
		if _, err := s.RunDay(w); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// The post-swap checkpoint resumes into a simulator configured with the
	// chaos plan from construction...
	faulted := goldenSim(t, func(c *Config) { c.Faults = chaosConfig(t) })
	if err := faulted.ResumeFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("post-swap checkpoint rejected by a matching config: %v", err)
	}
	if got := faulted.Day(); got != 4 {
		t.Fatalf("resumed simulator reports day %d, want 4", got)
	}
	// ...and is rejected by the clean configuration that started the run.
	clean := goldenSim(t, nil)
	err = clean.ResumeFrom(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("post-swap checkpoint resumed into the pre-swap configuration")
	}
	if !strings.Contains(err.Error(), "config") {
		t.Errorf("plan-mismatch error does not mention the config: %v", err)
	}
}

// TestSetFaultsDisable turns chaos off mid-run: the injector goes away, the
// checkpoint stops carrying injector state, and lingering sensor corruption
// is cleared so the controller's view reconverges to the physics.
func TestSetFaultsDisable(t *testing.T) {
	s := goldenSim(t, faultedMutate(t))
	weathers := goldenWeather()
	for _, w := range weathers[:3] {
		if _, err := s.RunDay(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetFaults(faults.Config{}); err != nil {
		t.Fatal(err)
	}
	for _, nd := range s.nodes {
		if f := nd.SensorFault(); f.Mode != faults.SensorOK {
			t.Errorf("node %s still carries sensor fault %v after disabling the plan", nd.ID(), f.Mode)
		}
	}
	if _, err := s.RunDay(weathers[3]); err != nil {
		t.Fatal(err)
	}
	st, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults != nil {
		t.Fatal("disabled fault plan still serializes injector state")
	}
	// The post-disable checkpoint restores into a faultless simulator whose
	// node config otherwise matches (UtilityBackup rode along with the
	// chaos fixture's config).
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	target := goldenSim(t, func(c *Config) { c.Node.UtilityBackup = true })
	if err := target.ResumeFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("post-disable checkpoint rejected by a faultless config: %v", err)
	}
}

// TestSetFaultsRejectsInvalid pins that a bad plan is rejected without
// disturbing the live injector.
func TestSetFaultsRejectsInvalid(t *testing.T) {
	s := goldenSim(t, faultedMutate(t))
	bad := faults.Config{Rules: []faults.Rule{{Kind: "not_a_fault"}}}
	if err := s.SetFaults(bad); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
	if s.inj == nil {
		t.Fatal("rejected plan tore down the live injector")
	}
}
