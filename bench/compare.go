package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readReports loads every -json line of a file.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rep)
	}
	return out, sc.Err()
}

// byMetric groups reports' values as workload -> metric -> values in file
// order.
func byMetric(reps []report) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, rep := range reps {
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[string][]float64{}
		}
		for name, v := range rep.Metrics {
			out[rep.Workload][name] = append(out[rep.Workload][name], v.Value)
		}
	}
	return out
}

// compareFiles prints, for every workload and metric both files hold, each
// side's median and quartiles and the change from A to B, judged against
// the metric's bound: agree, regressed (worse by more than the bound), or
// unresolved (a side's quartile spread is wider than the bound and the two
// sides overlap). It then checks that every run of a workload at one seed,
// on either side, simulated the same thing. It fails if any row regressed
// or any simulated outcome differs.
func compareFiles(aPath, bPath, specPath string, w io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	type rule struct {
		lower bool
		bound float64 // 0: no bound
	}
	var order []string
	rules := map[string]rule{}
	for _, m := range spec.EndToEnd {
		order = append(order, m.Name)
		rules[m.Name] = rule{lower: m.Better == "lower", bound: m.Bound}
	}
	for _, m := range spec.PerLayer {
		order = append(order, m.Name)
		rules[m.Name] = rule{lower: m.Better == "lower"}
	}
	ra, err := readReports(aPath)
	if err != nil {
		return err
	}
	rb, err := readReports(bPath)
	if err != nil {
		return err
	}
	a, b := byMetric(ra), byMetric(rb)

	fmt.Fprintf(w, "%-18s %-32s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "bound", "verdict")
	regressed := 0
	for _, wl := range workloads {
		for _, name := range order {
			va, vb := a[wl.name][name], b[wl.name][name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := rules[name]
			ma, mb := median(va), median(vb)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			change := relative(mb-ma, ma)
			worse := change
			if !r.lower {
				worse = -change
			}
			verdict, bound := "-", "-"
			if r.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*r.bound)
				spread := math.Max(relative(qa3-qa1, ma), relative(qb3-qb1, mb))
				switch {
				case spread > r.bound && !separated(va, vb):
					verdict = "unresolved"
				case worse > r.bound:
					verdict = "regressed"
					regressed++
				default:
					verdict = "agree"
				}
			}
			fmt.Fprintf(w, "%-18s %-32s %12.6g %25s %12.6g %25s %+7.1f%% %6s  %s\n",
				wl.name, name, ma, fmt.Sprintf("[%.6g, %.6g]", qa1, qa3),
				mb, fmt.Sprintf("[%.6g, %.6g]", qb1, qb3), 100*change, bound, verdict)
		}
	}

	// Host speed must never change what is simulated: every run of a
	// workload at one seed has one digest.
	differ := 0
	both := append(slices.Clone(ra), rb...)
	for _, wl := range workloads {
		digests := map[int64][]string{}
		for _, rep := range both {
			if rep.Workload == wl.name && !slices.Contains(digests[rep.Seed], rep.Digest) {
				digests[rep.Seed] = append(digests[rep.Seed], rep.Digest)
			}
		}
		if len(digests) == 0 {
			continue
		}
		var bad []int64
		for seed, ds := range digests {
			if len(ds) > 1 {
				bad = append(bad, seed)
			}
		}
		slices.Sort(bad)
		verdict := "identical"
		if len(bad) > 0 {
			verdict = fmt.Sprintf("differs at seeds %v", bad)
			differ++
		}
		fmt.Fprintf(w, "%-18s %-32s %d seeds: %s\n", wl.name, "simulated (digest)", len(digests), verdict)
	}
	if regressed > 0 || differ > 0 {
		return fmt.Errorf("%d (workload, metric) rows regressed; %d workloads simulated differently", regressed, differ)
	}
	return nil
}

// relative is d as a share of base, 0 when both are 0.
func relative(d, base float64) float64 {
	if d == 0 {
		return 0
	}
	return d / math.Abs(base)
}

// separated reports whether every value of one side lies beyond every value
// of the other, so the medians differ whatever the spread.
func separated(a, b []float64) bool {
	return slices.Max(a) < slices.Min(b) || slices.Max(b) < slices.Min(a)
}
