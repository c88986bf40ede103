package sim

// Allocation guards for the tick path. The per-tick prologue (demand
// water-fill, SoC-ordered charge allocation) plus the serial node fan-out
// must not touch the heap in steady state: every scratch slice lives on
// the Simulator and the SoC sort runs over a cached index slice. A single
// allocation per tick multiplies into ~10⁶ per simulated week per node,
// which is exactly the regression the benchmark-regression harness
// (internal/perf) pins across releases; these tests catch it at `go test`
// time with exact thresholds.

import (
	"testing"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/solar"
)

// allocSim builds a serial-stepping fleet and runs one warm-up day so
// service placement and scratch growth are behind us before measuring.
func allocSim(t *testing.T) *Simulator {
	return allocSimModel(t, battery.KindLeadAcid)
}

// allocSimModel is allocSim under a chosen battery model tier: the
// allocation-free guarantee holds per tier, not just for the default
// electrochemical path.
func allocSimModel(t *testing.T, kind battery.Kind) *Simulator {
	t.Helper()
	s := newSim(t, "ebuff", func(c *Config) {
		c.Nodes = 8
		c.Workers = 1
		// No batch jobs: submitJobs legitimately allocates fresh VMs, and
		// these guards measure the steady-state stepping machinery.
		c.JobsPerDay = 0
		ncfg, err := c.Node.WithBatteryModel(kind)
		if err != nil {
			t.Fatal(err)
		}
		c.Node = ncfg
	})
	if _, err := s.RunDay(solar.Sunny); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStepInWindowAllocFree(t *testing.T) {
	for _, kind := range battery.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			s := allocSimModel(t, kind)
			allocs := testing.AllocsPerRun(500, func() {
				if err := s.step(500, true); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("in-window step allocates %.1f objects per tick, want 0", allocs)
			}
		})
	}
}

func TestStepOfflineAllocFree(t *testing.T) {
	s := allocSim(t)
	allocs := testing.AllocsPerRun(500, func() {
		if err := s.step(300, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("offline step allocates %.1f objects per tick, want 0", allocs)
	}
}

// TestRunDayAllocBudgetMixedFleet covers a mixed-tier fleet: a half
// lead-acid, half LFP fleet must hit the same per-day budget as a
// homogeneous one — every node holds its pack by value in the one node
// slice built at construction, never grown on the tick path.
func TestRunDayAllocBudgetMixedFleet(t *testing.T) {
	s := newSim(t, "ebuff", func(c *Config) {
		c.Nodes = 8
		c.Workers = 1
		c.JobsPerDay = 0
		c.BatteryFleet = []BatteryShare{
			{Model: battery.KindLeadAcid, Fraction: 0.5},
			{Model: battery.KindLFP, Fraction: 0.5},
		}
	})
	if _, err := s.RunDay(solar.Sunny); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.RunDay(solar.Cloudy); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 16
	if allocs > budget {
		t.Fatalf("mixed-fleet RunDay allocates %.1f objects per day, want ≤ %d", allocs, budget)
	}
}

// TestRunDayAllocBudget bounds the whole-day path: after the scratch
// buffers exist, a full simulated day may allocate only the per-day
// setup (the generated solar profile) — single digits, not per-tick or
// per-node quantities.
func TestRunDayAllocBudget(t *testing.T) {
	for _, kind := range battery.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			s := allocSimModel(t, kind)
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := s.RunDay(solar.Cloudy); err != nil {
					t.Fatal(err)
				}
			})
			const budget = 16
			if allocs > budget {
				t.Fatalf("RunDay allocates %.1f objects per day, want ≤ %d (per-day setup only)", allocs, budget)
			}
		})
	}
}
