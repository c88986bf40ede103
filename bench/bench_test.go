package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/sim"
)

// The benchmark's metric names are its contract with BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
			if !valid.MatchString(d.name) {
				t.Errorf("%s: invalid metric name %q", kind, d.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// Every workload runs at toy size untraced and traced, simulates the same
// thing both ways, and reports only declared metrics.
func TestToyWorkloads(t *testing.T) {
	t.Parallel()
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	toys := map[string]func(runParams) (*result, error){
		"warehouse-serial":   func(p runParams) (*result, error) { return runSim(warehouse(1).toy(128), p) },
		"warehouse-parallel": func(p runParams) (*result, error) { return runSim(warehouse(2).toy(128), p) },
		"aging-stress":       func(p runParams) (*result, error) { return runSim(agingStress().toy(64), p) },
		"served-prototype": func(p runParams) (*result, error) {
			return runServed(servedWorkload{nodes: 6, days: 4, forkDay: 2, clients: 1, minIters: 1}, p)
		},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			var digest string
			for _, trace := range []bool{false, true} {
				r, err := toys[w.name](runParams{workload: w.name, seed: 1, trace: trace, forceParallel: true})
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed > 0 || r.Attempted == 0 {
					t.Fatalf("trace %v: %d of %d checks failed: %v", trace, r.Failed, r.Attempted, r.Problems)
				}
				if trace && r.Digest != digest {
					t.Errorf("traced run simulated %.12s, untraced %.12s", r.Digest, digest)
				}
				digest = r.Digest
				for name := range r.EndToEnd {
					if !declared[name] {
						t.Errorf("undeclared metric %s", name)
					}
				}
				for name := range r.Layers {
					if !declared[name] {
						t.Errorf("undeclared metric %s", name)
					}
				}
			}
		})
	}
}

// The timing decorator changes nothing a policy does, including across a
// checkpoint and resume, for every registered policy.
func TestDecoratorKeepsDigest(t *testing.T) {
	t.Parallel()
	for _, info := range core.Registered() {
		if info.Name == timedPolicyName {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			w := agingStress().toy(32)
			base := w.config
			w.config = func(n int, seed int64) sim.Config {
				cfg := base(n, seed)
				cfg.Policy = core.PolicySpec{Name: info.Name}
				cfg.Tick = 5 * time.Minute // one tick per control period keeps the test short
				return cfg
			}
			var digest string
			for _, trace := range []bool{false, true} {
				r, err := runSim(w, runParams{workload: "decorator", seed: 3, trace: trace})
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed > 0 {
					t.Fatalf("trace %v: %v", trace, r.Problems)
				}
				if trace && r.Digest != digest {
					t.Errorf("decorated %s simulated %.12s, undecorated %.12s", info.Name, r.Digest, digest)
				}
				digest = r.Digest
			}
		})
	}
}

// -compare judges each row against the metric's bound and requires one
// simulated outcome per workload and seed.
func TestCompare(t *testing.T) {
	t.Parallel()
	write := func(name string, reps ...report) string {
		path := filepath.Join(t.TempDir(), name)
		for _, rep := range reps {
			if err := appendJSON(path, rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	run := func(seed int64, digest string, dayS, rss float64) report {
		return report{Workload: "aging-stress", Seed: seed, Digest: digest, outcome: outcome{Metrics: map[string]value{
			"day_s_min":   {Value: dayS, Unit: "s"},
			"peak_rss_mb": {Value: rss, Unit: "MB"},
		}}}
	}
	// B's days are 10 % slower: within the 25 % bound. Its peak RSS is
	// 50 % higher: a regression.
	a := write("a.json", run(1, "x", 1.0, 100), run(2, "y", 1.0, 100), run(3, "z", 1.0, 100))
	b := write("b.json", run(1, "x", 1.1, 150), run(2, "y", 1.1, 150), run(3, "z", 1.1, 150))
	var out strings.Builder
	if err := compareFiles(a, b, "../BENCHMARK.json", &out); err == nil {
		t.Errorf("a 50%% peak RSS rise passed:\n%s", out.String())
	}
	for _, want := range []string{`day_s_min .* agree`, `peak_rss_mb .* regressed`, `simulated \(digest\) +3 seeds: identical`} {
		if !regexp.MustCompile(want).MatchString(out.String()) {
			t.Errorf("no row matching %q in:\n%s", want, out.String())
		}
	}

	c := write("c.json", run(1, "x", 1.0, 100), run(2, "other", 1.0, 100), run(3, "z", 1.0, 100))
	out.Reset()
	if err := compareFiles(a, c, "../BENCHMARK.json", &out); err == nil ||
		!strings.Contains(out.String(), "differs at seeds [2]") {
		t.Errorf("a changed digest passed (%v):\n%s", err, out.String())
	}
}

// Quartiles follow Python's statistics.quantiles(xs, n=4), which judges
// run-to-run spread.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
