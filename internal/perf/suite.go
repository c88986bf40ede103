package perf

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/experiments"
	"github.com/green-dc/baat/internal/sim"
	"github.com/green-dc/baat/internal/solar"
)

// suiteFleetNodes sizes the small fleet-stepping benchmarks: big enough
// that the per-tick fan-out dominates, small enough that the suite stays
// in CI budget.
const suiteFleetNodes = 64

// suiteWarehouseNodes is the warehouse-scale stepping entry: 65536 nodes
// exercises the fleet's contiguous node slice, each node holding its parts
// by value, at the fleet sizes the ROADMAP's scaling axis targets. One
// simulated day at this size is seconds, not milliseconds, so the suite
// runs exactly one op of it.
const suiteWarehouseNodes = 65536

// suiteTick is the simulated tick the fleet-stepping entries use; it sets
// the ticks-per-day factor in the node-steps/s derivation.
const suiteTick = 5 * time.Minute

// suitePolicyNodes sizes the policy_control entries: the fleet of the
// repository benchmark's aging-stress workload, where the policy's fleet
// scans dominate the simulated day.
const suitePolicyNodes = 256

// suiteSweepID is the experiment the sweep benchmarks run in quick mode:
// fig18 fans four policy kinds across the variant pool, so the parallel
// entry genuinely exercises runSweep.
const suiteSweepID = "fig18"

// RunSuite executes the fixed benchmark suite and returns its report. It
// drives testing.Benchmark directly, so it works from any binary — no test
// runner required. Entry names are stable identifiers the comparator keys
// on; changing one orphans its baseline line.
func RunSuite() (Report, error) {
	var r Report
	var err error
	add := func(name string, pinned bool, fn func(b *testing.B)) {
		if err != nil {
			return
		}
		res := testing.Benchmark(fn)
		if res.N == 0 {
			err = fmt.Errorf("perf: benchmark %s did not run", name)
			return
		}
		r.Entries = append(r.Entries, Entry{
			Name:        name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Pinned:      pinned,
		})
	}
	// addFleet derives node-steps/s for a fleet-stepping entry (one op is
	// one simulated day of ticksPerDay ticks across the whole fleet).
	addFleet := func(name string, pinned bool, nodes int, fn func(b *testing.B)) {
		add(name, pinned, fn)
		if err != nil {
			return
		}
		e := &r.Entries[len(r.Entries)-1]
		ticksPerDay := float64(24 * time.Hour / suiteTick)
		e.NodeStepsPerSec = float64(nodes) * ticksPerDay * 1e9 / e.NsPerOp
	}

	// The serial tick path is the allocation-free core this harness
	// protects. Both 64-node entries are pinned: below the engine's
	// parallel threshold Workers=4 takes the same serial path, which is
	// exactly the fix for the old per-tick goroutine churn that made the
	// small parallel entry 1.8× slower with thousands of allocations.
	// The unsuffixed names run the default electrochemical lead-acid tier
	// (names are baseline keys — renaming them would orphan history); the
	// /model= variants pin the same allocation budget under the other
	// battery model tiers, so a tier can never quietly grow a heap path
	// the lead-acid node layout avoids.
	addFleet(fmt.Sprintf("fleet_step/nodes=%d/workers=1", suiteFleetNodes), true,
		suiteFleetNodes, fleetStepBench(suiteFleetNodes, 1, battery.KindLeadAcid))
	addFleet(fmt.Sprintf("fleet_step/nodes=%d/workers=4", suiteFleetNodes), true,
		suiteFleetNodes, fleetStepBench(suiteFleetNodes, 4, battery.KindLeadAcid))
	addFleet(fmt.Sprintf("fleet_step/nodes=%d/workers=1/model=linear", suiteFleetNodes), true,
		suiteFleetNodes, fleetStepBench(suiteFleetNodes, 1, battery.KindLinear))
	addFleet(fmt.Sprintf("fleet_step/nodes=%d/workers=1/model=lfp", suiteFleetNodes), true,
		suiteFleetNodes, fleetStepBench(suiteFleetNodes, 1, battery.KindLFP))
	addFleet(fmt.Sprintf("fleet_step/nodes=%d/workers=1", suiteWarehouseNodes), true,
		suiteWarehouseNodes, fleetStepBench(suiteWarehouseNodes, 1, battery.KindLeadAcid))
	// The linear tier exists for warehouse-scale sweeps; this entry is the
	// headline it has to earn — same 65536-node day, cheap per-node model.
	addFleet(fmt.Sprintf("fleet_step/nodes=%d/workers=1/model=linear", suiteWarehouseNodes), true,
		suiteWarehouseNodes, fleetStepBench(suiteWarehouseNodes, 1, battery.KindLinear))
	// The LFP tier shares the electrochemical Pack but swaps the OCV curve
	// and damage model; pinning it at warehouse scale keeps all three tiers
	// on the same scaling axis instead of only at the 64-node size.
	addFleet(fmt.Sprintf("fleet_step/nodes=%d/workers=1/model=lfp", suiteWarehouseNodes), true,
		suiteWarehouseNodes, fleetStepBench(suiteWarehouseNodes, 1, battery.KindLFP))
	// The policy stage of the tick pipeline, one entry per registered
	// policy: one Control pass per op over a stressed fleet.
	for _, info := range core.Registered() {
		add(fmt.Sprintf("policy_control/policy=%s/nodes=%d", info.Name, suitePolicyNodes), true,
			policyControlBench(info.Name, suitePolicyNodes))
	}
	add("tracker_observe", true, trackerObserveBench)
	add("battery_step", true, batteryStepBench(battery.KindLeadAcid))
	add("battery_step/model=linear", true, batteryStepBench(battery.KindLinear))
	add("battery_step/model=lfp", true, batteryStepBench(battery.KindLFP))
	add("experiment_sweep/"+suiteSweepID+"/workers=1", false, experimentSweepBench(1))
	add("experiment_sweep/"+suiteSweepID+"/workers=4", false, experimentSweepBench(4))
	add("checkpoint_roundtrip", false, checkpointRoundtripBench)
	return r, err
}

// fleetStepBench mirrors internal/sim's BenchmarkFleetStep: one simulated
// day per op on a consolidated fleet, with the one-off placement pass
// warmed up outside the timer so the steady-state step path is what's
// measured. Warehouse sizes provision services directly (the policy's
// placement scan is O(nodes) per VM).
func fleetStepBench(nodes, workers int, model battery.Kind) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := sim.DefaultConfig()
		cfg.Policy = core.PolicySpec{Name: "ebuff"}
		cfg.Nodes = nodes
		cfg.Workers = workers
		cfg.Tick = suiteTick
		ncfg, err := cfg.Node.WithBatteryModel(model)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Node = ncfg
		cfg.JobsPerDay = 0
		cfg.ServiceVMs = nodes / 4
		cfg.Solar.Scale = 1.5 * float64(nodes) / 6
		warehouse := nodes >= 16384
		if warehouse {
			cfg.ServiceVMs = 0 // provisioned directly below
		}
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if warehouse {
			if err := s.ProvisionServices(nodes / 4); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.RunDay(solar.Sunny); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.RunDay(solar.Cloudy); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// policyControlBench measures one Control pass of the named policy, with no
// telemetry attached, on a fleet starved of solar with a job backlog: the
// repository benchmark's aging-stress set-up (scarce sun, 1.2 jobs per node
// per day, a quarter of the nodes hosting a service) run under the policy
// for four days. The warmed fleet is built once and shared by the
// benchmark's calibration rounds; passes after the first run on the state
// earlier passes left, which is the steady state of a control period whose
// fleet has not stepped since.
func policyControlBench(name string, nodes int) func(b *testing.B) {
	var ctx *core.Context
	return func(b *testing.B) {
		if ctx == nil {
			cfg := sim.DefaultConfig()
			cfg.Policy = core.PolicySpec{Name: name}
			cfg.Nodes = nodes
			cfg.Solar.Scale = 0.5 * float64(nodes) / 6
			cfg.JobsPerDay = nodes * 6 / 5
			cfg.ServiceVMs = nodes / 4
			s, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, w := range []solar.Weather{solar.Rainy, solar.Cloudy, solar.Rainy, solar.Rainy} {
				if _, err := s.RunDay(w); err != nil {
					b.Fatal(err)
				}
			}
			ctx = &core.Context{Nodes: s.Nodes(), Clock: s.Clock(), Rng: rand.New(rand.NewPCG(1, 0))}
		}
		p, err := core.Build(core.PolicySpec{Name: name})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Control(ctx); err != nil { // sizes any reusable scratch
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Control(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// trackerObserveBench measures one aging-metric sample fold — the call
// every node makes every tick.
func trackerObserveBench(b *testing.B) {
	tr, err := aging.NewTracker(2100)
	if err != nil {
		b.Fatal(err)
	}
	discharge := aging.Sample{Dt: time.Minute, Current: 5, SoC: 0.55, Temperature: 25}
	charge := aging.Sample{Dt: time.Minute, Current: -5, SoC: 0.55, Temperature: 25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := discharge
		if i&1 == 1 {
			s = charge
		}
		if err := tr.Observe(s); err != nil {
			b.Fatal(err)
		}
	}
}

// batteryStepBench measures one model step of the given tier, alternating
// between discharging and charging around mid-SoC so neither cut-off is
// reached however large b.N grows.
func batteryStepBench(kind battery.Kind) func(b *testing.B) {
	return func(b *testing.B) {
		spec, err := battery.DefaultSpecFor(kind)
		if err != nil {
			b.Fatal(err)
		}
		m, err := battery.New(spec, battery.WithInitialSoC(0.6))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m.SoC() > 0.5 {
				if _, err := m.Discharge(60, time.Second, 25); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := m.Charge(60, time.Second, 25); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// checkpointRoundtripBench measures one full checkpoint/resume cycle on a
// live prototype-scale fleet: serialize the simulator mid-run, then
// restore into a freshly built one. This is the fixed cost a warm-started
// sweep pays per variant instead of re-simulating the burn-in.
func checkpointRoundtripBench(b *testing.B) {
	build := func() *sim.Simulator {
		cfg := sim.DefaultConfig()
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	src := build()
	if _, err := src.RunDay(solar.Cloudy); err != nil {
		b.Fatal(err)
	}
	dst := build()
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := src.Checkpoint(&buf); err != nil {
			b.Fatal(err)
		}
		if err := dst.ResumeFrom(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// experimentSweepBench runs one quick-mode experiment per op, serially or
// across the variant worker pool.
func experimentSweepBench(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		runner, err := experiments.Lookup(suiteSweepID)
		if err != nil {
			b.Fatal(err)
		}
		cfg := experiments.DefaultConfig()
		cfg.Quick = true
		cfg.Workers = workers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runner(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
