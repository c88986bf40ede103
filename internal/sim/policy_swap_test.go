package sim

import (
	"bytes"
	"testing"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/workload"
)

func TestSetPolicyMidRun(t *testing.T) {
	s := newSim(t, "ebuff")
	if _, err := s.RunDay(solar.Cloudy); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPolicy(core.PolicySpec{Name: "baat"}); err != nil {
		t.Fatal(err)
	}
	ds, err := s.RunDay(solar.Cloudy)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Throughput <= 0 {
		t.Error("no throughput after policy swap")
	}
	res, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "BAAT" {
		t.Errorf("result policy = %q, want BAAT after swap", res.Policy)
	}
}

func TestSetPolicyInvalidSpecLeavesRunUntouched(t *testing.T) {
	s := newSim(t, "ebuff")
	if err := s.SetPolicy(core.PolicySpec{}); err == nil {
		t.Error("empty policy spec accepted")
	}
	if err := s.SetPolicy(core.PolicySpec{Name: "no-such-policy"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := s.SetPolicy(core.PolicySpec{Name: "baat", Options: map[string]string{"bogus": "1"}}); err == nil {
		t.Error("unknown option accepted")
	}
	if err := s.SetPolicy(core.PolicySpec{Name: "baat", Options: map[string]string{"floor": "2"}}); err == nil {
		t.Error("out-of-range option value accepted")
	}
	// A failed swap must leave the running policy in place (validate
	// before teardown): the run continues under the original scheme.
	res, err := s.Run([]solar.Weather{solar.Sunny})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "e-Buff" {
		t.Errorf("result policy = %q, want e-Buff after rejected swaps", res.Policy)
	}
}

func TestIdenticalWeatherAcrossPolicies(t *testing.T) {
	// The whole §VI-B methodology rests on this: two simulators with the
	// same seed but different policies must see byte-identical solar days.
	a := newSim(t, "ebuff")
	b := newSim(t, "baat")
	ra, err := a.Run([]solar.Weather{solar.Cloudy, solar.Rainy})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run([]solar.Weather{solar.Cloudy, solar.Rainy})
	if err != nil {
		t.Fatal(err)
	}
	// Potential generation is identical, so total solar *used* can differ
	// only through policy decisions — but the weather class sequence and
	// per-day identity must match exactly.
	for i := range ra.Days {
		if ra.Days[i].Weather != rb.Days[i].Weather {
			t.Fatalf("day %d weather diverged: %v vs %v", i, ra.Days[i].Weather, rb.Days[i].Weather)
		}
	}
}

func TestRunUntilEndOfLifeSameWeatherAcrossPolicies(t *testing.T) {
	// RunUntilEndOfLife draws weather from the dedicated stream; the draw
	// sequence must not depend on the policy's own randomness.
	mk := func(policy string) *Result {
		s := newSim(t, policy, func(c *Config) { c.Node.AgingConfig.AccelFactor = 50 })
		res, err := s.RunUntilEndOfLife(solar.Location{SunshineFraction: 0.5}, 6)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ra := mk("ebuff")
	rb := mk("baat-h") // BAAT-h consumes policy randomness (rng.Perm)
	n := len(ra.Days)
	if len(rb.Days) < n {
		n = len(rb.Days)
	}
	for i := 0; i < n; i++ {
		if ra.Days[i].Weather != rb.Days[i].Weather {
			t.Fatalf("day %d weather diverged across policies: %v vs %v",
				i, ra.Days[i].Weather, rb.Days[i].Weather)
		}
	}
}

// swapMutate is a small BAAT fleet short of solar, so that BAAT caps
// frequencies before the tests below switch it to e-Buff.
func swapMutate(t *testing.T, chaos bool) func(*Config) {
	return func(c *Config) {
		c.Services = workload.PrototypeServices()
		c.JobsPerDay = 6
		c.Node.AgingConfig.AccelFactor = 25
		c.Solar.Scale = 0.6
		if chaos {
			fcfg, err := faults.Profile("chaos", 0)
			if err != nil {
				t.Fatal(err)
			}
			c.Faults = fcfg
		}
	}
}

// cappedToEBuff runs a BAAT day, caps every other server one more notch
// and switches to e-Buff, so the first e-Buff pass meets capped servers.
func cappedToEBuff(t *testing.T, s *Simulator) {
	t.Helper()
	if _, err := s.RunDay(solar.Rainy); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(s.nodes); i += 2 {
		s.nodes[i].Server().StepDownFrequency()
	}
	if err := s.SetPolicy(core.PolicySpec{Name: "ebuff"}); err != nil {
		t.Fatal(err)
	}
}

// belowTop counts the servers below their top DVFS level.
func belowTop(s *Simulator) int {
	n := 0
	for _, nd := range s.nodes {
		if srv := nd.Server(); srv.FrequencyIndex() != len(srv.Spec().FreqLevels)-1 {
			n++
		}
	}
	return n
}

// topCheck wraps a policy and fails the test when one of its Control
// passes leaves a server below its top DVFS level.
type topCheck struct {
	core.Policy
	t      *testing.T
	s      *Simulator
	passes int
}

func (c *topCheck) Control(ctx *core.Context) error {
	if err := c.Policy.Control(ctx); err != nil {
		return err
	}
	c.passes++
	if n := belowTop(c.s); n > 0 {
		c.t.Fatalf("control pass %d at %v left %d servers below their top DVFS level", c.passes, ctx.Clock, n)
	}
	return nil
}

// TestEBuffKeepsServersAtTop runs two chaos-faulted e-Buff days that start
// from capped servers and requires every server at its top DVFS level
// after each control pass. e-Buff walks the fleet only on its first pass,
// so this holds only because nothing else lowers a frequency under it.
func TestEBuffKeepsServersAtTop(t *testing.T) {
	s := newSim(t, "baat", swapMutate(t, true))
	cappedToEBuff(t, s)
	if belowTop(s) == 0 {
		t.Fatal("setup left no server capped")
	}
	check := &topCheck{Policy: s.policy, t: t, s: s}
	s.policy = check
	for _, w := range []solar.Weather{solar.Rainy, solar.Cloudy} {
		if _, err := s.RunDay(w); err != nil {
			t.Fatal(err)
		}
	}
	if check.passes < 100 {
		t.Fatalf("%d control passes checked, want at least 100", check.passes)
	}
}

// TestResumeInPlaceMatchesFreshResume resumes a checkpoint that holds
// capped servers under e-Buff twice: into a new simulator, and in place
// into the simulator that wrote it, after a day under e-Buff raised its
// servers. Restore builds a fresh controller, as New does, so both must
// run the next day to the same checkpoint bytes.
func TestResumeInPlaceMatchesFreshResume(t *testing.T) {
	mutate := swapMutate(t, false)
	s := newSim(t, "baat", mutate)
	cappedToEBuff(t, s)
	if belowTop(s) == 0 {
		t.Fatal("setup left no server capped")
	}
	var ck bytes.Buffer
	if err := s.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunDay(solar.Sunny); err != nil {
		t.Fatal(err)
	}
	if err := s.ResumeFrom(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	fresh := newSim(t, "ebuff", mutate)
	if err := fresh.ResumeFrom(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	var out [2]bytes.Buffer
	for i, sim := range []*Simulator{s, fresh} {
		if _, err := sim.RunDay(solar.Cloudy); err != nil {
			t.Fatal(err)
		}
		if n := belowTop(sim); n > 0 {
			t.Errorf("resume %d: %d servers still capped after an e-Buff day", i, n)
		}
		if err := sim.Checkpoint(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Error("in-place resume diverged from a resume into a new simulator")
	}
}
