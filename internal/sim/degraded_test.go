package sim

// Degraded-mode scenario tests: the graceful-degradation contract of the
// engine under sensor faults. A node whose metrics chain goes bad (NaN
// readings the tracker rejects, or a dropped feed that goes stale) must be
// quarantined — conservative placement, no new VMs while degraded — and
// must recover within one quarantine window of the fault clearing, all
// without a panic, deadlock, or stalled simulation.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/telemetry"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

// degradedSim builds a four-node fleet with one sensor-fault rule against
// node 0 and the quarantine window aligned to the control period, so
// "recovers within one control window" is exactly what the timing
// assertions check.
func degradedSim(t *testing.T, policy string, rule faults.Rule) (*Simulator, *telemetry.Recorder) {
	t.Helper()
	rec := telemetry.NewRecorder()
	s := newSim(t, policy, func(c *Config) {
		c.Nodes = 4
		c.Seed = 17
		c.Telemetry = rec
		c.Node.SensorQuarantine = c.ControlPeriod
		c.Faults = faults.Config{Rules: []faults.Rule{rule}}
	})
	return s, rec
}

func TestDegradedModeScenarios(t *testing.T) {
	const (
		faultStart = 9 * time.Hour
		faultLen   = time.Hour
	)
	tests := []struct {
		name string
		kind faults.Kind
		// wantRejected: the tracker must reject samples (implausible
		// readings); otherwise the stale path (missed samples) must fire.
		wantRejected bool
	}{
		{"nan readings rejected", faults.SensorNaN, true},
		{"dropped feed goes stale", faults.SensorDrop, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, rec := degradedSim(t, "baat", faults.Rule{
				Kind: tt.kind, Node: 0, Day: 1, At: faultStart, Duration: faultLen,
			})
			ds, err := s.RunDay(solar.Sunny)
			if err != nil {
				t.Fatalf("RunDay under %s: %v", tt.kind, err)
			}
			if ds.Throughput <= 0 {
				t.Error("no work completed: the fleet stalled under a single-node sensor fault")
			}

			n := s.nodes[0]
			if tt.wantRejected {
				if n.SensorRejected() == 0 {
					t.Error("tracker accepted every NaN sample")
				}
			} else if n.SensorDropped() == 0 {
				t.Error("no samples recorded as dropped")
			}
			if n.MetricsSuspect() {
				t.Error("node still quarantined at end of day, long after the fault cleared")
			}

			// The trace must show exactly the degraded window: entry shortly
			// after the fault starts, exit within one quarantine window of
			// the fault clearing.
			events := rec.Events()
			var entered, recovered *telemetry.Event
			for i, ev := range events {
				if ev.Node != "node-0" {
					continue
				}
				switch ev.Type {
				case telemetry.EventDegradedMode:
					if entered == nil {
						entered = &events[i]
					}
				case telemetry.EventDegradedRecovered:
					if entered != nil && recovered == nil {
						recovered = &events[i]
					}
				}
			}
			if entered == nil {
				t.Fatal("no degraded_mode event for node-0")
			}
			if recovered == nil {
				t.Fatal("no degraded_recovered event for node-0")
			}
			// Stale detection needs node.DefaultStaleAfter consecutive
			// misses, so entry lags the fault start by a few ticks at most.
			if entered.At < faultStart || entered.At > faultStart+10*time.Minute {
				t.Errorf("degraded_mode at %v, want within 10m of fault start %v", entered.At, faultStart)
			}
			deadline := faultStart + faultLen + s.cfg.ControlPeriod
			if recovered.At > deadline {
				t.Errorf("degraded_recovered at %v, want within one control window of fault end (by %v)",
					recovered.At, deadline)
			}

			snap := rec.Snapshot()
			if snap.Counters[telemetry.MetricFaultsInjected] == 0 {
				t.Error("fault injection counter never incremented")
			}
			// One entry and one exit: two transitions.
			if got := snap.Counters[telemetry.MetricDegradedTransitions]; got != 2 {
				t.Errorf("degraded transitions = %d, want 2", got)
			}
		})
	}
}

// TestDegradedEventsInNodeOrder pins the order of degraded-mode events
// within a tick: when every node's sensor chain fails at the same tick, and
// recovers at the same tick, the events name the nodes in ascending index
// order.
func TestDegradedEventsInNodeOrder(t *testing.T) {
	s, rec := degradedSim(t, "baat", faults.Rule{
		Kind: faults.SensorNaN, Node: -1, Day: 1, At: 9 * time.Hour, Duration: time.Hour,
	})
	if _, err := s.RunDay(solar.Sunny); err != nil {
		t.Fatal(err)
	}
	got := map[telemetry.EventType][]string{}
	for _, ev := range rec.Events() {
		if ev.Type == telemetry.EventDegradedMode || ev.Type == telemetry.EventDegradedRecovered {
			got[ev.Type] = append(got[ev.Type], ev.Node)
		}
	}
	want := []string{"node-0", "node-1", "node-2", "node-3"}
	for _, typ := range []telemetry.EventType{telemetry.EventDegradedMode, telemetry.EventDegradedRecovered} {
		if !slices.Equal(got[typ], want) {
			t.Errorf("%s events name %v, want %v", typ, got[typ], want)
		}
	}
}

// TestSuspectNodeReceivesNoPlacements holds the conservative-placement
// rule: while a node's metrics are quarantined, the aging-aware policies
// must not hand it new VMs as long as a trusted node has capacity.
func TestSuspectNodeReceivesNoPlacements(t *testing.T) {
	for _, policy := range []string{"baat", "baat-h"} {
		t.Run(policy, func(t *testing.T) {
			// The fault runs through end of day, so node 0 is still
			// quarantined when the day finishes.
			s, _ := degradedSim(t, policy, faults.Rule{
				Kind: faults.SensorNaN, Node: 0, Day: 1, At: 12 * time.Hour, Duration: 12 * time.Hour,
			})
			if _, err := s.RunDay(solar.Sunny); err != nil {
				t.Fatal(err)
			}
			if !s.nodes[0].MetricsSuspect() {
				t.Fatal("node-0 not quarantined at end of day; scenario setup broken")
			}
			profile, err := workload.ProfileFor(workload.KMeans)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				v, err := vm.New(fmt.Sprintf("probe-%d", i), profile)
				if err != nil {
					t.Fatal(err)
				}
				target, err := s.policy.PlaceVM(s.ctx(), v)
				if err != nil {
					t.Fatalf("probe placement %d: %v", i, err)
				}
				if target == s.nodes[0] {
					t.Fatalf("probe %d placed on the quarantined node", i)
				}
			}
		})
	}
}

// TestFleetWideSuspectStillPlaces is the degenerate case: when every
// node's metrics are quarantined, placement must fall back to the suspect
// pool rather than rejecting work — degraded, not dead.
func TestFleetWideSuspectStillPlaces(t *testing.T) {
	s, _ := degradedSim(t, "baat", faults.Rule{
		Kind: faults.SensorNaN, Node: -1, Day: 1, At: 12 * time.Hour, Duration: 12 * time.Hour,
	})
	if _, err := s.RunDay(solar.Sunny); err != nil {
		t.Fatal(err)
	}
	for i, n := range s.nodes {
		if !n.MetricsSuspect() {
			t.Fatalf("node %d not quarantined; scenario setup broken", i)
		}
	}
	profile, err := workload.ProfileFor(workload.KMeans)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New("probe", profile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.policy.PlaceVM(s.ctx(), v); err != nil {
		t.Errorf("fleet-wide quarantine rejected placement: %v", err)
	}
}

// TestFaultsSeedDefaultIsDerived pins the seed-stream convention: an
// explicit Faults.Seed overrides, a zero seed inherits Config.Seed (the
// injector then derives its own named substream), and the two must agree
// when set to the same value.
func TestFaultsSeedDefaultIsDerived(t *testing.T) {
	run := func(faultSeed int64) []byte {
		rule := faults.Rule{Kind: faults.SensorNoise, Node: -1, Probability: 0.05, Duration: 10 * time.Minute}
		cfg := DefaultConfig()
		cfg.Policy = core.PolicySpec{Name: "baat"}
		cfg.Seed = 40
		cfg.Faults = faults.Config{Seed: faultSeed, Rules: []faults.Rule{rule}}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run([]solar.Weather{solar.Sunny})
		if err != nil {
			t.Fatal(err)
		}
		return marshaledResult(t, res)
	}
	auto := run(0)
	explicit := run(40) // same value as Config.Seed
	if string(auto) != string(explicit) {
		t.Error("zero Faults.Seed did not inherit Config.Seed")
	}
}
