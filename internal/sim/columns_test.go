package sim

// The splits' columns: each shard pass writes the next charge split's
// requests and SoC snapshot right after stepping its nodes, writes the next
// load split's demands when the next tick is in the window, and reaps their
// completed VMs on a control tick. The golden traces compare at a relative
// 1e-9, and the serial≡parallel sweep reads the same columns on both sides,
// so neither can see a column that is off by a bit. This test pins the
// columns bit for bit against the nodes they stand for.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/telemetry"
	"github.com/green-dc/baat/internal/units"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

// TestSplitColumnsMatchNodes steps a fleet with a job backlog under the
// chaos fault profile tick by tick, doing between steps what RunDay does:
// the injector's tick, the pending placements and the policy's Control
// pass. It runs BAAT, which migrates VMs and caps frequencies; BAAT-s,
// whose caps fall on servers still hosting VMs (BAAT first moves the VMs
// off an at-risk server, so here its caps never change a draw); and
// e-Buff switched in by SetPolicy over capped servers, which it raises.
//
// Whenever the charge columns are fresh, each node's slots must equal its
// live ChargeRequest and SoC bit for bit, both right after the step that
// wrote them and again at the next split, after everything the serial
// phase did in between. Whenever the demand column is fresh, each slot
// must equal the node's live Demand()/SolarDirectEfficiency right after the
// step, and again at the split unless the node's change flag is set; and
// at every in-window split the load grants must be the water-fill of the
// live demands, so the split re-read every flagged node. After a control
// tick's step no server may still hold a completed VM.
func TestSplitColumnsMatchNodes(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, policy := range []string{"baat", "baat-s", "ebuff"} {
				t.Run(policy, func(t *testing.T) { splitColumnsRun(t, policy, workers) })
			}
		})
	}
}

func splitColumnsRun(t *testing.T, policy string, workers int) {
	rec := telemetry.NewRecorder()
	start := "baat"
	if policy == "baat-s" {
		start = policy
	}
	s := newSim(t, start, func(c *Config) {
		c.Nodes = 12
		c.Workers = workers
		c.ShardSize = 3
		c.ParallelThreshold = -1
		c.Telemetry = rec
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
	if policy == "ebuff" {
		for i := 0; i < len(s.nodes); i += 2 {
			s.nodes[i].Server().StepDownFrequency()
		}
		if err := s.SetPolicy(core.PolicySpec{Name: policy}); err != nil {
			t.Fatal(err)
		}
	}
	if s.parallel {
		s.pool.Start()
		defer s.pool.Stop()
	}

	eff := s.cfg.Node.Losses.SolarDirectEfficiency
	live := make([]float64, len(s.nodes))
	readDemands := func() {
		for i, nd := range s.nodes {
			live[i] = float64(nd.Demand()) / eff
		}
	}
	fresh, freshDemand, flagged, reaped := 0, 0, 0, 0
	check := func(tod time.Duration, where string, flags bool) {
		t.Helper()
		if s.colsFresh {
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
		if !s.demandFresh {
			return
		}
		freshDemand++
		readDemands()
		for i := range s.nodes {
			if s.changed[i] {
				if !flags {
					t.Fatalf("%v %s: node %d flagged right after the pass that wrote its demand", tod, where, i)
				}
				flagged++
				continue
			}
			if math.Float64bits(s.demands[i]) != math.Float64bits(live[i]) {
				t.Fatalf("%v %s: node %d unflagged demand slot %v, live %v", tod, where, i, s.demands[i], live[i])
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
		s.colsFresh, s.demandFresh = false, false
		var sinceControl time.Duration
		for tod := time.Duration(0); tod < 24*time.Hour; tod += s.cfg.Tick {
			p := pass{ticks: 1, inWindow: s.inWindow(tod)}
			fs := s.inj.Tick(s.st.Clock, s.cfg.Tick)
			s.applyFaults(fs)
			p.power = units.Watt(float64(day.PowerAt(tod)) * fs.PVFactor)
			check(tod, "at the split", true)
			if p.inWindow {
				sinceControl += s.cfg.Tick
				if sinceControl >= s.cfg.ControlPeriod {
					sinceControl = 0
					p.control = true
				}
				readDemands()
			}
			p.demand = tod+s.cfg.Tick < 24*time.Hour && s.inWindow(tod+s.cfg.Tick)
			if err := s.step(p); err != nil {
				t.Fatal(err)
			}
			if p.inWindow {
				var total float64
				for _, d := range live {
					total += d
				}
				scale := 1.0
				if float64(p.power) < total {
					scale = float64(p.power) / total
				}
				for i, d := range live {
					want := 0.0
					if total > 0 {
						want = d * scale
					}
					if math.Float64bits(s.loadGrant[i]) != math.Float64bits(want) {
						t.Fatalf("%v: node %d load grant %v, water-fill of the live demands %v",
							tod, i, s.loadGrant[i], want)
					}
				}
			}
			s.applyDegradedTransitions()
			s.st.Clock += s.cfg.Tick
			check(tod, "after the step", false)
			if !p.control {
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
	// Each fresh split is checked twice. A run that never reaches the
	// columns, never flags a changed server, or whose VMs never complete
	// pins nothing; BAAT must also have migrated, and both BAAT policies
	// capped.
	if fresh < 200 || freshDemand < 200 || flagged == 0 || reaped == 0 {
		t.Fatalf("charge columns fresh on %d checks, demand column on %d, %d flagged slots, completed VMs seen %d times; want ≥ 200, ≥ 200, > 0 and > 0",
			fresh, freshDemand, flagged, reaped)
	}
	t.Logf("charge columns fresh on %d checks, demand column on %d, %d flagged slots, completed VMs seen %d times",
		fresh, freshDemand, flagged, reaped)
	snap := rec.Snapshot()
	migrations, caps := snap.Counter(telemetry.MetricMigrations), snap.Counter(telemetry.MetricDVFSCaps)
	if policy != "ebuff" && caps == 0 || policy == "baat" && migrations == 0 {
		t.Fatalf("%s made %d migrations and %d DVFS caps", policy, migrations, caps)
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
