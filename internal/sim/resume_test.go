package sim

// The checkpoint/resume acceptance suite. The contract under test: stepping
// the golden scenario to day 15, checkpointing, and resuming in a *fresh*
// Simulator must produce the remaining 15 days byte-identical to the
// uninterrupted run — for the clean and the chaos-faulted fixture and a
// mixed-tier fleet alike, and independent of the resumed simulator's
// worker count. A checkpoint that survives this is a complete
// serialization of the simulation state: any forgotten field (an RNG
// position, a pending VM, a sensor fault window) shows up as a trace diff
// here.

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/telemetry"
)

// resumeSplitDay is where the split runs checkpoint: halfway through the
// 30-day golden window, late enough that aging, faults, and pending batch
// jobs all carry real state across the boundary.
const resumeSplitDay = 15

// faultedMutate applies the chaos profile exactly as the faulted golden
// fixture does.
func faultedMutate(t *testing.T) func(*Config) {
	return func(c *Config) {
		fcfg, err := faults.Profile("chaos", 0)
		if err != nil {
			t.Fatal(err)
		}
		c.Faults = fcfg
		c.Node.UtilityBackup = true
	}
}

// splitTrace runs the golden scenario to resumeSplitDay, checkpoints,
// resumes into a fresh simulator with the given worker count, and finishes
// the window there. The returned trace stitches both halves together so it
// is directly comparable to an uninterrupted run.
func splitTrace(t *testing.T, mutate func(*Config), workers int) *goldenTrace {
	t.Helper()
	weathers := goldenWeather()

	first := goldenSim(t, mutate)
	trace := &goldenTrace{
		Seed:   goldenSeed,
		Days:   goldenDays,
		Policy: first.policy.Name(),
	}
	traceDays(t, first, weathers[:resumeSplitDay], trace)

	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	second := goldenSim(t, func(c *Config) {
		if mutate != nil {
			mutate(c)
		}
		c.Workers = workers
		if workers > 1 {
			// Force a genuine multi-shard fan-out on the six-node golden
			// fleet: the resumed half must be identical from inside the
			// parallel path, not just the serial fallback.
			c.ShardSize = 2
			c.ParallelThreshold = -1
		}
	})
	if err := second.ResumeFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := second.Day(); got != resumeSplitDay {
		t.Fatalf("resumed simulator reports day %d, want %d", got, resumeSplitDay)
	}
	traceDays(t, second, weathers[resumeSplitDay:], trace)
	traceFinish(second, trace)
	return trace
}

// fullTrace is the uninterrupted reference, shaped like splitTrace's output
// (no Description) so the two marshal byte-identically when equivalent.
func fullTrace(t *testing.T, mutate func(*Config)) *goldenTrace {
	t.Helper()
	tr := goldenScenario(t, "", mutate)
	tr.Description = ""
	return tr
}

// TestResumeEquivalence is the acceptance check for the checkpoint format:
// checkpoint at day 15, resume fresh, and the remaining trace must be
// byte-identical to the uninterrupted run at every worker count — for both
// golden fixtures, and for the golden fleet split into thirds of lead-acid,
// linear and LFP nodes, so a restore that mixes up tiers shows.
func TestResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("many 30-day replays")
	}
	third := 1.0 / 3
	scenarios := []struct {
		name   string
		mutate func(*Config)
	}{
		{"clean", nil},
		{"faulted", faultedMutate(t)},
		{"mixed", func(c *Config) {
			c.BatteryFleet = []BatteryShare{
				{Model: battery.KindLeadAcid, Fraction: third},
				{Model: battery.KindLinear, Fraction: third},
				{Model: battery.KindLFP, Fraction: third},
			}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want, err := json.Marshal(fullTrace(t, sc.mutate))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 8} {
				got, err := json.Marshal(splitTrace(t, sc.mutate, workers))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("workers=%d: resumed trace diverged from uninterrupted run", workers)
				}
			}
		})
	}
}

// TestResumeRejectsWrongConfig pins the envelope guard: a checkpoint only
// resumes into a simulator built from the configuration that wrote it.
func TestResumeRejectsWrongConfig(t *testing.T) {
	s := goldenSim(t, nil)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := goldenSim(t, func(c *Config) { c.Seed = goldenSeed + 1 })
	err := other.ResumeFrom(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("checkpoint resumed into a simulator with a different config")
	}
	if !strings.Contains(err.Error(), "config") {
		t.Errorf("config-mismatch error does not mention the config: %v", err)
	}
}

// TestResumeRejectsWrongBatteryModel pins that battery model identity
// participates in the envelope's config hash: a checkpoint written under
// the default lead-acid tier must not resume into a simulator running the
// linear tier, the LFP chemistry, or a mixed fleet — the state layouts and
// physics differ, so a silent cross-model resume would corrupt the run.
func TestResumeRejectsWrongBatteryModel(t *testing.T) {
	s := goldenSim(t, nil)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	mutators := map[string]func(*Config){
		"linear tier": func(c *Config) {
			ncfg, err := c.Node.WithBatteryModel(battery.KindLinear)
			if err != nil {
				t.Fatal(err)
			}
			c.Node = ncfg
		},
		"lfp chemistry": func(c *Config) {
			ncfg, err := c.Node.WithBatteryModel(battery.KindLFP)
			if err != nil {
				t.Fatal(err)
			}
			c.Node = ncfg
		},
		"mixed fleet": func(c *Config) {
			c.BatteryFleet = []BatteryShare{
				{Model: battery.KindLeadAcid, Fraction: 0.5},
				{Model: battery.KindLFP, Fraction: 0.5},
			}
		},
	}
	for name, mutate := range mutators {
		other := goldenSim(t, mutate)
		err := other.ResumeFrom(bytes.NewReader(buf.Bytes()))
		if err == nil {
			t.Fatalf("%s: checkpoint resumed into a simulator with a different battery model", name)
		}
		if !strings.Contains(err.Error(), "config") {
			t.Errorf("%s: model-mismatch error does not mention the config: %v", name, err)
		}
	}
}

// TestResumeIgnoresWorkerCount pins a deliberate exclusion: Workers,
// ShardSize, and ParallelThreshold are execution knobs, not simulation
// state, so none of them may participate in the config hash — a
// checkpoint written serially must resume into any sharded layout.
func TestResumeIgnoresWorkerCount(t *testing.T) {
	s := goldenSim(t, func(c *Config) { c.Workers = 1 })
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := goldenSim(t, func(c *Config) {
		c.Workers = 8
		c.ShardSize = 2
		c.ParallelThreshold = -1
	})
	if err := other.ResumeFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("an execution knob leaked into the config hash: %v", err)
	}
}

// TestResumeRejectsCorruptCheckpoint feeds the restore path mangled
// payloads: every failure must be loud, and a failed ResumeFrom must leave
// the target exactly as it was — including when only the last node is
// corrupt, after the earlier nodes already restored.
func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	s := goldenSim(t, nil)
	if _, err := s.RunDay(goldenWeather()[0]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	mangle := func(name string, f func(map[string]any)) []byte {
		t.Helper()
		var env map[string]any
		if err := json.Unmarshal(good, &env); err != nil {
			t.Fatal(err)
		}
		f(env)
		out, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	cases := map[string][]byte{
		"truncated":    good[:len(good)/2],
		"not json":     []byte("not a checkpoint"),
		"wrong format": mangle("format", func(m map[string]any) { m["format"] = 999 }),
		"format 2":     mangle("format", func(m map[string]any) { m["format"] = 2 }),
		"format 3":     mangle("format", func(m map[string]any) { m["format"] = 3 }),
		"format 4":     mangle("format", func(m map[string]any) { m["format"] = 4 }),
		"format 5":     mangle("format", func(m map[string]any) { m["format"] = 5 }),
		"six soc bins": mangle("soc_hist", func(m map[string]any) {
			st := m["state"].(map[string]any)
			st["soc_hist"] = st["soc_hist"].([]any)[:6]
		}),
		"eight soc bins": mangle("soc_hist", func(m map[string]any) {
			st := m["state"].(map[string]any)
			st["soc_hist"] = append(st["soc_hist"].([]any), 1)
		}),
		"negative soc count": mangle("soc_hist", func(m map[string]any) {
			st := m["state"].(map[string]any)
			st["soc_hist"].([]any)[3] = -1
		}),
		"no soc bins": mangle("soc_hist", func(m map[string]any) {
			delete(m["state"].(map[string]any), "soc_hist")
		}),
		"wrong confhash": mangle("confhash", func(m map[string]any) { m["config_hash"] = "deadbeef" }),
		"negative clock": mangle("clock", func(m map[string]any) {
			st := m["state"].(map[string]any)
			st["clock"] = -5
		}),
		"nan soc": mangle("soc", func(m map[string]any) {
			st := m["state"].(map[string]any)
			nodes := st["nodes"].([]any)
			pack := nodes[0].(map[string]any)["pack"].(map[string]any)
			pack["soc"] = "NaN" // strings where numbers belong must not decode
		}),
		"corrupt last node": mangle("last node", func(m map[string]any) {
			nodes := m["state"].(map[string]any)["nodes"].([]any)
			nodes[len(nodes)-1].(map[string]any)["soc_floor"] = 2
		}),
	}
	for name, data := range cases {
		fresh := goldenSim(t, nil)
		var before, after bytes.Buffer
		if err := fresh.Checkpoint(&before); err != nil {
			t.Fatal(err)
		}
		if err := fresh.ResumeFrom(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt checkpoint resumed without error", name)
			continue
		}
		if err := fresh.Checkpoint(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Errorf("%s: rejected resume changed the simulator (checkpoint %d -> %d bytes)",
				name, before.Len(), after.Len())
		}
	}
}

// TestResumeMidQuarantine checkpoints while node 2's sensor chain is
// quarantined. The checkpoint carries no degraded-mode flags; Restore
// rebuilds them from the restored nodes, so the resumed day must emit
// exactly the uninterrupted run's degraded-mode transitions — no spurious
// entry at the resume, and the same recovery.
func TestResumeMidQuarantine(t *testing.T) {
	rule := faults.Rule{Kind: faults.SensorNaN, Node: 2, Day: 1, At: 23 * time.Hour, Duration: 3 * time.Hour}
	build := func() (*Simulator, *telemetry.Recorder) {
		rec := telemetry.NewRecorder()
		s := newSim(t, "ebuff", func(c *Config) {
			c.Telemetry = rec
			c.Faults = faults.Config{Rules: []faults.Rule{rule}}
		})
		return s, rec
	}
	// day2Transitions returns the degraded-mode events from 24 h on, with
	// Seq cleared: the two recorders number their events differently.
	day2Transitions := func(rec *telemetry.Recorder) []telemetry.Event {
		var out []telemetry.Event
		for _, ev := range rec.Events() {
			if ev.At >= 24*time.Hour && (ev.Type == telemetry.EventDegradedMode || ev.Type == telemetry.EventDegradedRecovered) {
				ev.Seq = 0
				out = append(out, ev)
			}
		}
		return out
	}

	full, fullRec := build()
	if _, err := full.RunDay(solar.Sunny); err != nil {
		t.Fatal(err)
	}
	if !full.nodes[2].MetricsSuspect() {
		t.Fatal("node 2 is not quarantined at the checkpoint")
	}
	var ck bytes.Buffer
	if err := full.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	if _, err := full.RunDay(solar.Sunny); err != nil {
		t.Fatal(err)
	}

	resumed, resumedRec := build()
	if err := resumed.ResumeFrom(&ck); err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.RunDay(solar.Sunny); err != nil {
		t.Fatal(err)
	}

	want := day2Transitions(fullRec)
	if len(want) == 0 {
		t.Fatal("the uninterrupted run emitted no degraded-mode transition on day 2")
	}
	if got := day2Transitions(resumedRec); !slices.Equal(got, want) {
		t.Errorf("resumed run's degraded-mode transitions diverged:\n got %+v\nwant %+v", got, want)
	}
}
