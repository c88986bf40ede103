package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/sim"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/telemetry"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

// setup_s is the median of repeated set-ups, each built and thrown away:
// one after every timed day or served iteration, and at least minSetupReps.
// Spread over the run, the set-ups meet the host in the states the timed
// work meets it in; timed back to back they all fall in one phase of the
// host's noise, and their medians spread more than twice as wide from run
// to run.
const minSetupReps = 5

// setupMu lets one simulator set-up run at a time, because each switches
// the process-wide collector off and back on.
var setupMu sync.Mutex

// simWorkload is one in-process workload on sim.Simulator.
type simWorkload struct {
	nodes   int
	workers int
	// config returns the simulator configuration for a fleet size and seed.
	config func(nodes int, seed int64) sim.Config
	// provision attaches nodes/4 services with ProvisionServices after New.
	provision bool
	// warmup days run once, untimed, after set-up.
	warmup []solar.Weather
	// cycle is the weather of the timed days, repeated; a run always ends on
	// a whole cycle.
	cycle []solar.Weather
	// replay: every timed day after the first restarts from the checkpoint
	// taken after warm-up, so each timed day is the same simulated day.
	replay bool
	// minTimed is how many timed days run however short --seconds is. The
	// digest covers the first minTimed days, or each replayed day.
	minTimed int
}

// warehouse is the warehouse-scale fleet of the fleet_step entries in
// internal/perf: lead-acid, e-Buff, five-minute ticks, a quarter of the
// nodes hosting a service, no batch jobs and surplus solar. e-Buff's
// control pass exits early, so node physics and the engine's serial power
// prologue do nearly all the work.
func warehouse(workers int) simWorkload {
	return simWorkload{
		nodes:   4096,
		workers: workers,
		config: func(n int, seed int64) sim.Config {
			cfg := sim.DefaultConfig()
			cfg.Policy = core.PolicySpec{Name: "ebuff"}
			cfg.Nodes = n
			cfg.Seed = seed
			cfg.Tick = 5 * time.Minute
			cfg.JobsPerDay = 0
			cfg.ServiceVMs = 0
			cfg.Node.TableCapacity = 64
			cfg.Solar.Scale = 1.5 * float64(n) / 6
			return cfg
		},
		provision: true,
		warmup:    []solar.Weather{solar.Sunny},
		cycle:     []solar.Weather{solar.Sunny, solar.Cloudy, solar.Rainy},
		minTimed:  6,
	}
}

// agingStress starves a BAAT fleet of solar while batch jobs keep arriving.
// Batteries sink, the slowdown and hiding arms scan the fleet for every
// stressed node, and the unplaced backlog is re-offered to PlaceVM every
// control period, so the policy layer dominates. That cost climbs day by
// day; replaying one stressed day from a checkpoint keeps every timed day
// the same work.
func agingStress() simWorkload {
	return simWorkload{
		nodes:   256,
		workers: 1,
		config: func(n int, seed int64) sim.Config {
			cfg := sim.DefaultConfig()
			cfg.Policy = core.PolicySpec{Name: "baat"}
			cfg.Nodes = n
			cfg.Seed = seed
			cfg.Solar.Scale = 0.5 * float64(n) / 6
			cfg.JobsPerDay = n * 6 / 5
			cfg.ServiceVMs = n / 4
			// Power-table history is never read by the engine or the
			// policies; trimming it keeps each replayed day's checkpoint
			// small.
			cfg.Node.TableCapacity = 64
			return cfg
		},
		warmup:   []solar.Weather{solar.Rainy, solar.Cloudy, solar.Rainy, solar.Rainy},
		cycle:    []solar.Weather{solar.Cloudy},
		replay:   true,
		minTimed: 3,
	}
}

// toy shrinks a workload to test size: just enough timed days to take a
// digest. A replayed workload keeps one warm-up day, so its checkpoint
// carries policy state, and replays twice, so the resume path runs.
func (w simWorkload) toy(nodes int) simWorkload {
	w.nodes = nodes
	w.warmup = nil
	w.minTimed = 1
	if w.replay {
		w.warmup = agingStress().warmup[:1]
		w.minTimed = 2
	}
	return w
}

// ticksPerDay is the number of simulation steps in one day.
func ticksPerDay(cfg sim.Config) int { return int(24 * time.Hour / cfg.Tick) }

// runSim runs one sim workload and measures it.
func runSim(w simWorkload, p runParams) (*result, error) {
	var tr *tracer
	var rec *telemetry.Recorder
	cfg := w.config(w.nodes, p.seed)
	cfg.Workers = w.workers
	if p.forceParallel {
		cfg.ParallelThreshold = -1
	}
	if p.trace {
		if tr = p.tracer; tr == nil {
			tr = newTracer(p.workload)
		}
		rec = telemetry.NewRecorder()
		cfg.Policy = timedSpec(cfg.Policy.Name, tr)
		cfg.Telemetry = rec
	}
	build := func() (*sim.Simulator, error) {
		id := tr.push("sim.new")
		s, err := sim.New(cfg)
		tr.pop(id)
		if err != nil || !w.provision {
			return s, err
		}
		id = tr.push("sim.provision")
		err = s.ProvisionServices(cfg.Nodes / 4)
		tr.pop(id)
		return s, err
	}

	r := &result{Workload: p.workload, EndToEnd: map[string]float64{}}
	var setup []float64
	// Each set-up starts with no free memory held by the process, as in a
	// fresh process, so that it always pays for the pages it touches rather
	// than only when the runtime happened to return them. The collector is
	// off while it runs, so its time is its own work and all the memory it
	// takes shows in peak RSS. Garbage is collected after it, outside the
	// timing, so the thrown-away simulator is not collected during a timed
	// day.
	setupRep := func() error {
		setupMu.Lock()
		defer setupMu.Unlock()
		debug.FreeOSMemory()
		gc := debug.SetGCPercent(-1)
		start := time.Now()
		_, err := build()
		setup = append(setup, time.Since(start).Seconds())
		debug.SetGCPercent(gc)
		runtime.GC()
		return err
	}
	s, err := build()
	if err != nil {
		return nil, err
	}
	for _, wx := range w.warmup {
		id := tr.push("sim.warmup_day")
		_, err := s.RunDay(wx)
		tr.pop(id)
		if err != nil {
			return nil, err
		}
	}
	var ck bytes.Buffer
	if w.replay {
		if err := s.Checkpoint(&ck); err != nil {
			return nil, err
		}
	}

	before := rec.Snapshot()
	var days []sim.DayStats
	var durs []float64
	var mallocs uint64
	var timed time.Duration
	var ms0, ms1 runtime.MemStats
	for i := 0; ; i++ {
		if w.replay && i > 0 {
			var err error
			if s, err = sim.New(cfg); err != nil {
				return nil, err
			}
			id := tr.push("sim.resume")
			err = s.ResumeFrom(bytes.NewReader(ck.Bytes()))
			tr.pop(id)
			if err != nil {
				return nil, err
			}
			runtime.GC() // the decoded envelope is garbage; keep it out of the timed day
		}
		runtime.ReadMemStats(&ms0)
		id := tr.push("sim.run_day")
		start := time.Now()
		ds, err := s.RunDay(w.cycle[i%len(w.cycle)])
		d := time.Since(start)
		tr.pop(id)
		runtime.ReadMemStats(&ms1)
		r.Attempted++
		if err != nil {
			r.fail("day %d: %v", i+1, err)
			break
		}
		timed += d
		durs = append(durs, d.Seconds())
		mallocs += ms1.Mallocs - ms0.Mallocs
		days = append(days, ds)

		if w.replay || i+1 == w.minTimed {
			check := days
			if w.replay {
				check = days[i:]
			}
			dg, work, health, err := simDigest(check, s)
			if err != nil {
				return nil, err
			}
			if r.Digest == "" {
				r.Digest, r.SimWork, r.MinHealth = dg, work, health
			} else {
				r.Attempted++
				if dg != r.Digest {
					r.fail("replayed day %d: digest %.12s, first replay %.12s", i+1, dg, r.Digest)
				}
			}
		}
		if err := setupRep(); err != nil {
			return nil, err
		}
		if i+1 >= w.minTimed && timed.Seconds() >= p.seconds && (i+1)%len(w.cycle) == 0 {
			break
		}
	}
	if len(days) == 0 {
		return r, nil
	}
	for len(setup) < minSetupReps {
		if err := setupRep(); err != nil {
			return nil, err
		}
	}
	r.EndToEnd["setup_s"] = median(setup)
	r.EndToEnd["node_steps_per_s"] = float64(cfg.Nodes*ticksPerDay(cfg)) / slices.Min(durs)
	r.EndToEnd["day_s_min"] = slices.Min(durs)
	r.EndToEnd["allocs_per_day"] = float64(mallocs) / float64(len(days))
	if !p.trace {
		return r, nil
	}

	r.Layers = simLayers(tr.snapshot(), cfg)
	counts(r.Layers, before, rec.Snapshot(), len(days))
	if err := checkpointProbe(r, s, cfg, tr); err != nil {
		return nil, err
	}
	if err := sweepProbe(r.Layers, s); err != nil {
		return nil, err
	}
	r.Layers["sim.checkpoint_s"] = median(spanSeconds(tr.snapshot(), "sim.checkpoint"))
	r.Layers["sim.resume_s"] = median(spanSeconds(tr.snapshot(), "sim.resume"))
	return r, nil
}

// spanSeconds returns the durations of every span with the given name.
func spanSeconds(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// simLayers derives the sim and core metrics from the spans of a traced run.
// The day's time splits into the policy's Control and PlaceVM time and the
// engine's self time (the rest); like day_s_min, the split is that of the
// fastest timed day. Call counts are per timed day.
func simLayers(spans []span, cfg sim.Config) map[string]float64 {
	var controlUS []float64
	var days, controlCalls, placeCalls, noCap int
	controlIn := map[int]time.Duration{}
	fastest := -1
	for i, s := range spans {
		if s.Name != "sim.run_day" {
			continue
		}
		days++
		placeCalls += s.PlaceCalls
		noCap += s.PlaceNoCap
		if fastest < 0 || s.dur() < spans[fastest].dur() {
			fastest = i
		}
	}
	for _, s := range spans {
		if s.Name == "core.control" && s.Parent >= 0 && spans[s.Parent].Name == "sim.run_day" {
			controlIn[s.Parent] += s.dur()
			controlUS = append(controlUS, float64(s.dur())/1e3)
			controlCalls++
		}
	}
	m := map[string]float64{
		"sim.new_s":           median(spanSeconds(spans, "sim.new")),
		"sim.provision_s":     median(spanSeconds(spans, "sim.provision")),
		"core.control_us_p50": percentile(controlUS, 0.5),
		"core.control_us_p99": percentile(controlUS, 0.99),
	}
	if fastest < 0 {
		return m
	}
	day := spans[fastest]
	self := day.dur() - time.Duration(day.ChildNS)
	m["sim.run_day_s"] = day.dur().Seconds()
	m["sim.self_s"] = self.Seconds()
	m["sim.self_ns_per_node_step"] = float64(self) / float64(cfg.Nodes*ticksPerDay(cfg))
	m["core.control_s"] = controlIn[fastest].Seconds()
	m["core.place_vm_s"] = time.Duration(day.PlaceNS).Seconds()
	m["core.control_calls"] = float64(controlCalls) / float64(days)
	m["core.place_vm_calls"] = float64(placeCalls) / float64(days)
	if placeCalls > 0 {
		m["core.place_vm_no_capacity_frac"] = float64(noCap) / float64(placeCalls)
	}
	return m
}

// recorderCounts maps per-layer metrics to the telemetry counters that
// count them.
var recorderCounts = map[string]string{
	"core.migrations":         telemetry.MetricMigrations,
	"core.migration_failures": telemetry.MetricMigrationFailures,
	"core.dvfs_caps":          telemetry.MetricDVFSCaps,
	"node.dark_ticks":         telemetry.MetricNodeDarkTicks,
	"battery.discharge_steps": telemetry.MetricBatteryDischargeSteps,
	"battery.charge_steps":    telemetry.MetricBatteryChargeSteps,
	"battery.rest_steps":      telemetry.MetricBatteryRestSteps,
	"battery.cutoffs":         telemetry.MetricBatteryCutoffs,
	"faults.injected":         telemetry.MetricFaultsInjected,
}

// counts adds the per-day counter increments between two recorder
// snapshots.
func counts(m map[string]float64, before, after telemetry.Snapshot, days int) {
	for name, counter := range recorderCounts {
		m[name] = float64(after.Counter(counter)-before.Counter(counter)) / float64(days)
	}
}

// checkpointProbe checkpoints the final simulator, resumes the envelope into
// a fresh one and checks that the fresh one checkpoints to the same bytes.
func checkpointProbe(r *result, s *sim.Simulator, cfg sim.Config, tr *tracer) error {
	var ck bytes.Buffer
	id := tr.push("sim.checkpoint")
	err := s.Checkpoint(&ck)
	tr.pop(id)
	if err != nil {
		return err
	}
	r.Layers["sim.checkpoint_bytes"] = float64(ck.Len())
	fresh, err := sim.New(cfg)
	if err != nil {
		return err
	}
	id = tr.push("sim.resume")
	err = fresh.ResumeFrom(bytes.NewReader(ck.Bytes()))
	tr.pop(id)
	r.Attempted++
	if err != nil {
		r.fail("checkpoint probe: %v", err)
		return nil
	}
	var again bytes.Buffer
	if err := fresh.Checkpoint(&again); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), ck.Bytes()) {
		r.fail("checkpoint probe: resumed simulator checkpoints to different bytes")
	}
	return nil
}

// sweepProbe times per-node calls the engine's power prologue (Demand,
// ChargeRequest) and the policies' placement scans (Metrics, CanHost) make,
// by sweeping them over the final fleet.
func sweepProbe(m map[string]float64, s *sim.Simulator) error {
	nodes := s.Nodes()
	prof, err := workload.ProfileFor(workload.WebServing)
	if err != nil {
		return err
	}
	v, err := vm.New("probe", prof)
	if err != nil {
		return err
	}
	sweep := func(name string, call func(i int) float64) {
		calls := 0
		var sum float64
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			for i := range nodes {
				sum += call(i)
			}
			calls += len(nodes)
		}
		m[name] = float64(time.Since(start).Nanoseconds()) / float64(calls)
		runtime.KeepAlive(sum) // keeps the probed calls from being optimised away
	}
	sweep("node.demand_ns", func(i int) float64 { return float64(nodes[i].Demand()) })
	sweep("node.charge_request_ns", func(i int) float64 { return float64(nodes[i].ChargeRequest()) })
	sweep("node.metrics_ns", func(i int) float64 { return nodes[i].Metrics().NAT })
	sweep("server.can_host_ns", func(i int) float64 {
		if nodes[i].Server().CanHost(v) {
			return 1
		}
		return 0
	})
	return nil
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}
