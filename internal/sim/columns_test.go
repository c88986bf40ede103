package sim

// The charge split's columns: each shard pass writes the next split's
// charge requests and SoC snapshot right after stepping its nodes, and
// reaps their completed VMs on a control tick. The golden traces compare at
// a relative 1e-9, and the serial≡parallel sweep reads the same columns on
// both sides, so neither can see a column that is off by a bit. This test
// pins the columns bit for bit against the nodes they stand for.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/units"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

// TestSplitColumnsMatchNodes steps a BAAT fleet with a job backlog under
// the chaos fault profile tick by tick, doing between steps what RunDay
// does: the injector's tick, the pending placements and the policy's
// Control pass. Whenever the columns are fresh, each node's slots must
// equal its live ChargeRequest and SoC bit for bit, both right after the
// step that wrote them and again at the next split, after everything the
// serial phase did in between. After a control tick's step no server may
// still hold a completed VM.
func TestSplitColumnsMatchNodes(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := newSim(t, "baat", func(c *Config) {
				c.Nodes = 12
				c.Workers = workers
				c.ShardSize = 3
				c.ParallelThreshold = -1
				c.Services = workload.PrototypeServices()
				c.JobsPerDay = 12
				c.Node.AgingConfig.AccelFactor = 25
				c.Solar.Scale = 0.8 * float64(c.Nodes) / 6
				fcfg, err := faults.Profile("chaos", 0)
				if err != nil {
					t.Fatal(err)
				}
				c.Faults = fcfg
			})
			if _, err := s.RunDay(solar.Cloudy); err != nil {
				t.Fatal(err)
			}
			if s.parallel {
				s.pool.Start()
				defer s.pool.Stop()
			}

			fresh, reaped := 0, 0
			check := func(tod time.Duration, where string) {
				t.Helper()
				if !s.colsFresh {
					return
				}
				fresh++
				for i, nd := range s.nodes {
					req, soc := float64(nd.ChargeRequest()), nd.SoC()
					if math.Float64bits(s.chargeReq[i]) != math.Float64bits(req) ||
						math.Float64bits(s.socSnap[i]) != math.Float64bits(soc) {
						t.Fatalf("%v %s: node %d columns (request %v, SoC %v), live (%v, %v)",
							tod, where, i, s.chargeReq[i], s.socSnap[i], req, soc)
					}
				}
			}
			for _, w := range []solar.Weather{solar.Sunny, solar.Rainy} {
				day, err := solar.NewDay(w, s.cfg.Solar, s.wxRng.Rand)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.submitJobs(); err != nil {
					t.Fatal(err)
				}
				s.colsFresh = false
				var sinceControl time.Duration
				for tod := time.Duration(0); tod < 24*time.Hour; tod += s.cfg.Tick {
					inWindow := tod >= s.cfg.WindowStart && tod < s.cfg.WindowEnd
					fs := s.inj.Tick(s.st.Clock, s.cfg.Tick)
					s.applyFaults(fs)
					power := units.Watt(float64(day.PowerAt(tod)) * fs.PVFactor)
					check(tod, "at the split")
					control := false
					if inWindow {
						sinceControl += s.cfg.Tick
						if sinceControl >= s.cfg.ControlPeriod {
							sinceControl = 0
							control = true
						}
					}
					if err := s.step(power, inWindow, control); err != nil {
						t.Fatal(err)
					}
					s.applyDegradedTransitions()
					s.st.Clock += s.cfg.Tick
					check(tod, "after the step")
					if !control {
						reaped += completedVMs(s)
						continue
					}
					if n := completedVMs(s); n > 0 {
						t.Fatalf("%v: %d completed VMs still hosted after a control tick", tod, n)
					}
					if err := s.placePending(); err != nil {
						t.Fatal(err)
					}
					if err := s.policy.Control(s.ctx()); err != nil {
						t.Fatal(err)
					}
				}
				s.reapCompleted()
			}
			// Each fresh split is checked twice. A run that never reaches
			// the columns, or whose VMs never complete, pins nothing.
			if fresh < 200 || reaped == 0 {
				t.Fatalf("columns fresh on %d checks, completed VMs seen %d times; want ≥ 200 and > 0", fresh, reaped)
			}
		})
	}
}

// completedVMs counts the completed VMs the fleet's servers still host.
func completedVMs(s *Simulator) int {
	n := 0
	for _, nd := range s.nodes {
		for _, v := range nd.Server().VMs() {
			if v.State() == vm.Completed {
				n++
			}
		}
	}
	return n
}
