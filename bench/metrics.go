package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"slices"

	"github.com/green-dc/baat/internal/sim"
)

// metricDef names one reported metric and its unit. BENCHMARK.json declares
// the same names with their direction and bound; the test keeps the two in
// step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by every
// untraced run.
//
// The time of a simulated day and the throughput are taken from the run's
// fastest sample. On a shared host, neighbours' memory traffic slows every
// memory-bound step by up to 1.7x in phases lasting from seconds to minutes;
// a run's median then says more about the neighbours than about the code,
// while its fastest sample repeats from run to run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"node_steps_per_s", "1/s"},
	{"day_s_min", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_day", "count"},
}

// serveRoutes are the control-plane calls the served workload makes.
var serveRoutes = []string{"create", "start", "result", "checkpoint", "fork", "mutate", "resume", "delete"}

// perLayer are the metrics a traced run reports. Counts marked 1/day are per
// timed simulated day. A workload that never calls a layer reports 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.new_s", "s"},
		{"sim.provision_s", "s"},
		{"sim.run_day_s", "s"},
		{"sim.self_s", "s"},
		{"sim.self_ns_per_node_step", "ns"},
		{"sim.checkpoint_s", "s"},
		{"sim.checkpoint_bytes", "bytes"},
		{"sim.resume_s", "s"},
		{"core.control_calls", "1/day"},
		{"core.control_s", "s"},
		{"core.control_us_p50", "us"},
		{"core.control_us_p99", "us"},
		{"core.place_vm_calls", "1/day"},
		{"core.place_vm_s", "s"},
		{"core.place_vm_no_capacity_frac", "ratio"},
		{"core.migrations", "1/day"},
		{"core.migration_failures", "1/day"},
		{"core.dvfs_caps", "1/day"},
		{"node.demand_ns", "ns"},
		{"node.charge_request_ns", "ns"},
		{"node.metrics_ns", "ns"},
		{"server.can_host_ns", "ns"},
		{"node.dark_ticks", "1/day"},
		{"battery.discharge_steps", "1/day"},
		{"battery.charge_steps", "1/day"},
		{"battery.rest_steps", "1/day"},
		{"battery.cutoffs", "1/day"},
		{"faults.injected", "1/day"},
	}
	for _, r := range serveRoutes {
		defs = append(defs, metricDef{"serve." + r + "_s_p50", "s"})
	}
	return append(defs,
		metricDef{"serve.calls", "count"},
		metricDef{"serve.errors", "count"},
		metricDef{"serve.control_s_p50", "s"},
		metricDef{"serve.control_s_p95", "s"},
		metricDef{"serve.checkpoint_bytes", "bytes"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the closest ranks; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartiles by the method of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), which is how
// run-to-run spread is judged; both are xs[0] for a single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		m := j * (n + 1)
		k := min(max(m/4, 1), n-1)
		frac := float64(m-k*4) / 4
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(3)
}

// simDigest hashes a run's simulated outcome: the given days' stats, every
// node's end state (health, NAT and the rest of the aging metrics, SoC,
// throughput, battery counters) and the fleet SoC histogram. Two runs with
// equal digests simulated the same thing.
func simDigest(days []sim.DayStats, s *sim.Simulator) (digest string, work, minHealth float64, err error) {
	res, err := s.Run(nil) // steps nothing; assembles the fleet summary
	if err != nil {
		return "", 0, 0, err
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range []any{days, res.Nodes, res.SoCHistogram.Counts()} {
		if err := enc.Encode(v); err != nil {
			return "", 0, 0, err
		}
	}
	for _, d := range days {
		work += d.Throughput
	}
	minHealth = math.Inf(1)
	for _, n := range res.Nodes {
		minHealth = min(minHealth, n.Health)
	}
	return hex.EncodeToString(h.Sum(nil)), work, minHealth, nil
}
