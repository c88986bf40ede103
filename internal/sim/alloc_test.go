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
	"fmt"
	"testing"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/units"
)

// allocSimModel builds a fleet of the given battery model tier and worker
// count and runs one warm-up day so service placement and scratch growth
// are behind us before measuring: the allocation-free guarantee holds per
// tier, not just for the default electrochemical path, and on the parallel
// path too. The fleet is split into two-node shards and forced onto the
// pool at this size; with more than one worker the pool is started after
// the warm-up day, as RunDay starts it, for the rest of the test.
func allocSimModel(t *testing.T, kind battery.Kind, workers int) *Simulator {
	t.Helper()
	s := newSim(t, "ebuff", func(c *Config) {
		c.Nodes = 8
		c.Workers = workers
		c.ShardSize = 2
		c.ParallelThreshold = -1
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
	if workers > 1 {
		if !s.parallel {
			t.Fatalf("Workers=%d did not select the parallel path", workers)
		}
		s.pool.Start()
		t.Cleanup(s.pool.Stop)
	}
	return s
}

// stepAllocs measures step's allocations per tick. Every tick's split has
// power to hand out, so from the second tick on the split reads the
// columns the shard pass wrote; in the window the load split also reads
// the demand column, and every fifth tick ends a control period, so the
// shard pass reaps too.
func stepAllocs(t *testing.T, s *Simulator, power units.Watt, inWindow bool) float64 {
	t.Helper()
	tick := 0
	allocs := testing.AllocsPerRun(500, func() {
		tick++
		p := pass{ticks: 1, power: power, inWindow: inWindow, control: inWindow && tick%5 == 0, demand: inWindow}
		if err := s.step(p); err != nil {
			t.Fatal(err)
		}
	})
	if !s.colsFresh || s.demandFresh != inWindow {
		t.Fatalf("the shard pass left the split's columns stale (charge fresh %v, demand fresh %v)",
			s.colsFresh, s.demandFresh)
	}
	return allocs
}

func TestStepInWindowAllocFree(t *testing.T) {
	for _, kind := range battery.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					s := allocSimModel(t, kind, workers)
					if allocs := stepAllocs(t, s, 500, true); allocs != 0 {
						t.Fatalf("in-window step allocates %.1f objects per tick, want 0", allocs)
					}
				})
			}
		})
	}
}

func TestStepOfflineAllocFree(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := allocSimModel(t, battery.KindLeadAcid, workers)
			if allocs := stepAllocs(t, s, 300, false); allocs != 0 {
				t.Fatalf("offline step allocates %.1f objects per tick, want 0", allocs)
			}
		})
	}
}

// TestDarkStretchAllocFree pins a dark stretch, which the shard pass steps
// through in one go and RunDay then books, at zero allocations.
func TestDarkStretchAllocFree(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := allocSimModel(t, battery.KindLeadAcid, workers)
			const ticks = 12
			allocs := testing.AllocsPerRun(100, func() {
				if err := s.step(pass{ticks: ticks}); err != nil {
					t.Fatal(err)
				}
				s.book(ticks)
			})
			if allocs != 0 {
				t.Fatalf("a %d-tick dark stretch allocates %.1f objects, want 0", ticks, allocs)
			}
		})
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
			s := allocSimModel(t, kind, 1)
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
