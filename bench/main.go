// Command baat-bench is the repository's benchmark: four workloads on the
// BAAT simulator, each run in a fresh child process, reporting end-to-end
// metrics untraced and per-layer metrics traced, and checking that the
// simulated results are what they must be. README.md describes the
// workloads and metrics; bench/run.sh builds and runs it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childLimit bounds one child process. A traced run starts two children, and
// the whole invocation must end within three minutes.
const childLimit = 80 * time.Second

// runParams are one child's inputs.
type runParams struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// forceParallel makes a multi-worker fleet step in parallel at any size
	// (the replica checks run fleets below the engine's parallel threshold).
	forceParallel bool
	// tracer, when set, receives the run's spans.
	tracer *tracer
}

// result is what a child reports to its parent.
type result struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Digest identifies the simulated outcome of a fixed prefix of the run;
	// it does not depend on host speed, worker count or tracing.
	Digest    string             `json:"digest"`
	SimWork   float64            `json:"sim_work"`
	MinHealth float64            `json:"sim_min_health"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

// workloads in the order they run. Toy sizes keep the replica checks cheap.
var workloads = []struct {
	name string
	run  func(runParams) (*result, error)
}{
	{"warehouse-serial", checkedSim(warehouse(1), 128)},
	{"warehouse-parallel", checkedSim(warehouse(2), 128)},
	{"aging-stress", checkedSim(agingStress(), 64)},
	{"served-prototype", func(p runParams) (*result, error) { return runServed(served, p) }},
}

// checkedSim runs a sim workload after a replica check: the same workload
// at toy size, once serially and untraced and once on two workers forced
// onto the parallel path, traced when the run is. The two must simulate
// the same thing, so every run re-checks the determinism contract and that
// tracing changes nothing.
func checkedSim(w simWorkload, toyNodes int) func(runParams) (*result, error) {
	return func(p runParams) (*result, error) {
		ref := w.toy(toyNodes)
		ref.workers = 1
		want, err := runSim(ref, runParams{workload: p.workload, seed: p.seed})
		if err != nil {
			return nil, fmt.Errorf("replica check: %w", err)
		}
		variant := w.toy(toyNodes)
		variant.workers = 2
		got, err := runSim(variant, runParams{workload: p.workload, seed: p.seed, trace: p.trace, forceParallel: true})
		if err != nil {
			return nil, fmt.Errorf("replica check: %w", err)
		}
		r, err := runSim(w, p)
		if err != nil {
			return nil, err
		}
		r.Attempted++
		if got.Digest != want.Digest || got.Failed+want.Failed > 0 {
			r.fail("replica check: two workers (trace %v) simulated %.12s, one worker %.12s", p.trace, got.Digest, want.Digest)
		}
		return r, nil
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("baat-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, a comma-separated list, or all")
	seed := fs.Int64("seed", 1, "workload seed; 2 is held out for checking claims")
	seconds := fs.Float64("seconds", 20, "host seconds each workload measures for")
	traceFlag := fs.Int("trace", 0, "1: run each workload untraced and traced, and report per-layer metrics")
	jsonOut := fs.String("json", "", "append each workload's result to this file as a JSON line")
	out := fs.String("out", "", "write the traced run's spans to <dir>/<workload>.spans.jsonl")
	compare := fs.String("compare", "", "compare the results in this -json file with those in the file named next")
	child := fs.Bool("child", false, "run one workload in this process and print its result (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: -compare A.json B.json")
			return 2
		}
		if err := compareFiles(*compare, fs.Arg(0), "BENCHMARK.json", stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	}
	names, err := selectWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	p := runParams{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	if *child {
		return runAsChild(names, p, *out, stdout, stderr)
	}
	return runAsParent(names, p, *out, *jsonOut, stdout, stderr)
}

func selectWorkloads(list string) ([]string, error) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if list == "all" {
		return names, nil
	}
	var out []string
	for _, n := range strings.Split(list, ",") {
		if !slices.Contains(names, n) {
			return nil, fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(names, ", "))
		}
		out = append(out, n)
	}
	return out, nil
}

// runAsChild runs exactly one workload and prints its result as JSON.
func runAsChild(names []string, p runParams, out string, stdout, stderr io.Writer) int {
	if len(names) != 1 {
		fmt.Fprintln(stderr, "-child runs exactly one workload")
		return 2
	}
	p.workload = names[0]
	if p.trace {
		p.tracer = newTracer(p.workload)
	}
	var r *result
	var err error
	for _, w := range workloads {
		if w.name == p.workload {
			r, err = w.run(p)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", p.workload, err)
		return 1
	}
	if out != "" && p.trace {
		if err := p.tracer.writeJSONL(out + "/" + p.workload + ".spans.jsonl"); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", p.workload, err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", p.workload, err)
		return 1
	}
	return 0
}

// runChild re-executes this binary on one workload and returns the child's
// result and its peak resident set size in MB.
func runChild(name string, p runParams, out string) (*result, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-child", "-workload", name,
		"-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64),
		"-trace", "0"}
	if p.trace {
		args[len(args)-1] = "1"
	}
	if out != "" {
		args = append(args, "-out", out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s (trace %v): %w", name, p.trace, err)
	}
	var r result
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &r); err != nil {
		return nil, 0, fmt.Errorf("%s: bad child output: %w", name, err)
	}
	var rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return &r, rssMB, nil
}

// outcome is the object the benchmark prints as its last line.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is one workload's outcome as -json records it, with what it
// simulated, which -compare requires to be identical for the same seed.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Trace     int     `json:"trace"`
	Digest    string  `json:"digest"`
	SimWork   float64 `json:"sim_work"`
	MinHealth float64 `json:"sim_min_health"`
	outcome
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAsParent runs each named workload in child processes and prints its
// metrics, then one JSON object with all of them as the last line.
func runAsParent(names []string, p runParams, out, jsonOut string, stdout, stderr io.Writer) int {
	final := outcome{Metrics: map[string]value{}}
	digests := map[string]string{}
	for _, name := range names {
		rep, err := measure(name, p, out, stdout)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		digests[name] = rep.Digest
		if jsonOut != "" {
			if err := appendJSON(jsonOut, rep); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		for k, v := range rep.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	// The determinism contract at full size: the worker count never changes
	// what is simulated.
	if a, b := digests["warehouse-serial"], digests["warehouse-parallel"]; a != "" && b != "" {
		final.Attempted++
		if a != b {
			final.Failed++
			fmt.Fprintf(stdout, "FAIL warehouse-parallel simulated %.12s, warehouse-serial %.12s\n", b, a)
		}
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// measure runs one workload (untraced, then traced when asked), prints its
// metrics and returns its report.
func measure(name string, p runParams, out string, stdout io.Writer) (report, error) {
	untraced := p
	untraced.trace = false
	r, rss, err := runChild(name, untraced, "")
	if err != nil {
		return report{}, err
	}
	rep := report{Workload: name, Seed: p.seed, Trace: boolInt(p.trace),
		Digest: r.Digest, SimWork: r.SimWork, MinHealth: r.MinHealth, outcome: outcome{Metrics: map[string]value{}}}
	rep.Attempted, rep.Failed = r.Attempted, r.Failed
	problems := r.Problems
	r.EndToEnd["peak_rss_mb"] = rss
	defs, got := endToEnd, r.EndToEnd
	if p.trace {
		t, _, err := runChild(name, p, out)
		if err != nil {
			return report{}, err
		}
		rep.Attempted += t.Attempted + 1
		rep.Failed += t.Failed
		problems = append(problems, t.Problems...)
		if t.Digest != r.Digest {
			rep.Failed++
			problems = append(problems, fmt.Sprintf("traced run simulated %.12s, untraced %.12s", t.Digest, r.Digest))
		}
		if t.Layers == nil {
			t.Layers = map[string]float64{}
		}
		if nsps := t.EndToEnd["node_steps_per_s"]; nsps > 0 {
			t.Layers["trace.overhead_frac"] = r.EndToEnd["node_steps_per_s"]/nsps - 1
		}
		defs, got = perLayer, t.Layers
	}
	rep.Correct = rep.Failed == 0
	fmt.Fprintf(stdout, "%s seed=%d digest=%.16s sim_work=%.6g sim_min_health=%.6g attempted=%d failed=%d\n",
		name, p.seed, r.Digest, r.SimWork, r.MinHealth, rep.Attempted, rep.Failed)
	for _, msg := range problems {
		fmt.Fprintf(stdout, "  FAIL %s\n", msg)
	}
	for _, d := range defs {
		v := got[d.name]
		rep.Metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	return rep, nil
}

func appendJSON(path string, rep report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
