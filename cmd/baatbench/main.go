// Command baatbench regenerates the tables and figures of the paper's
// evaluation (DSN'15 §VI) from the simulated prototype and prints them in
// paper order.
//
// Examples:
//
//	baatbench                    # every figure and table
//	baatbench fig14 fig20        # selected experiments
//	baatbench -quick             # reduced sweeps (CI-friendly)
//	baatbench -markdown > out.md # markdown for EXPERIMENTS.md
//
// It also hosts the benchmark-regression harness (internal/perf):
//
//	baatbench -bench-json BENCH_baseline.json     # refresh the baseline
//	baatbench -bench-compare BENCH_baseline.json  # fail on regressions
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	baat "github.com/green-dc/baat"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "baatbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick    = flag.Bool("quick", false, "reduced sweeps and horizons")
		seed     = flag.Int64("seed", 42, "random seed")
		workers  = flag.Int("workers", 1, "variant runs of one experiment run concurrently (1 = serial, -1 = all CPUs; never changes results)")
		accel    = flag.Float64("accel", 10, "battery aging acceleration factor")
		markdown = flag.Bool("markdown", false, "emit markdown tables")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		telAddr  = flag.String("telemetry-addr", "", "serve /metrics, /events, and /debug/pprof on this address while experiments run (empty = off)")
		faults   = flag.String("faults", "none", "fault-injection profile applied to every simulator: "+strings.Join(baat.FaultProfileNames(), " | "))
		faultsSd = flag.Int64("faults-seed", 0, "fault injector seed (0 derives from the simulation seed via the named fault substream)")
		battery  = flag.String("battery-model", "leadacid", "battery model tier for every harness-built simulator: leadacid | linear | lfp")
		policy   = flag.String("policy", "", "treatment policy spec for the BAAT-treatment harnesses: name[,key=value...] (empty = the paper's full BAAT; see 'baatsim policies')")

		benchJSON    = flag.String("bench-json", "", "run the benchmark-regression suite and write its JSON report to this path ('-' = stdout), then exit")
		benchCompare = flag.String("bench-compare", "", "run the benchmark-regression suite, compare against this baseline JSON, and exit non-zero on regressions")
		benchSlack   = flag.Float64("bench-time-slack", 0.15, "tolerated fractional time/op growth for -bench-compare")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file when the run completes")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer func() { _ = f.Close() }()
			runtime.GC() // materialize the steady-state live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "heap profile written to %s\n", path)
		}()
	}

	if *benchJSON != "" || *benchCompare != "" {
		return runBenchSuite(*benchJSON, *benchCompare, *benchSlack)
	}

	if *list {
		for _, id := range baat.Experiments() {
			fmt.Println(id)
		}
		return nil
	}

	bk, err := baat.ParseBatteryKind(*battery)
	if err != nil {
		return err
	}
	cfg := baat.ExperimentConfig{Seed: *seed, Accel: *accel, Quick: *quick, Workers: *workers, BatteryModel: bk}
	if *policy != "" {
		spec, err := baat.ParsePolicySpec(*policy)
		if err != nil {
			return err
		}
		if _, err := baat.BuildPolicy(spec); err != nil {
			return err
		}
		cfg.Policy = spec
	}
	fcfg, err := baat.FaultProfile(*faults, *faultsSd)
	if err != nil {
		return err
	}
	cfg.Faults = fcfg
	if *telAddr != "" {
		cfg.Telemetry = baat.NewRecorder()
		srv, err := baat.ServeTelemetry(cfg.Telemetry, *telAddr)
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics\n", srv.Addr())
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = baat.Experiments()
	}
	for _, id := range ids {
		start := time.Now()
		table, err := baat.RunExperiment(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *markdown {
			printMarkdown(table)
		} else {
			fmt.Println(table.Render())
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runBenchSuite executes the fixed benchmark suite once, then writes the
// report and/or gates it against a committed baseline.
func runBenchSuite(jsonPath, comparePath string, timeSlack float64) error {
	fmt.Fprintln(os.Stderr, "bench: running suite (several seconds per entry)...")
	report, err := baat.RunPerfSuite()
	if err != nil {
		return err
	}
	if jsonPath != "" {
		data, err := report.WriteJSON()
		if err != nil {
			return err
		}
		if jsonPath == "-" {
			if _, err := os.Stdout.Write(data); err != nil {
				return err
			}
		} else if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			return err
		}
	}
	if comparePath == "" {
		return nil
	}
	baseline, err := baat.ReadPerfReport(comparePath)
	if err != nil {
		return err
	}
	opt := baat.DefaultPerfOptions()
	opt.TimeSlack = timeSlack
	regressions := baat.ComparePerf(baseline, report, opt)
	for _, e := range report.Entries {
		fmt.Printf("bench: %-40s %12.0f ns/op %10d allocs/op %12d B/op\n",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
	}
	if len(regressions) > 0 {
		// Print the whole per-entry delta table, not just the offenders, so
		// a regression is diagnosed in the context of its neighbors.
		fmt.Fprint(os.Stderr, baat.FormatPerfDeltaTable(baat.PerfDeltas(baseline, report, opt)))
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "bench regression:", r)
		}
		return fmt.Errorf("%d benchmark regression(s) against %s", len(regressions), comparePath)
	}
	fmt.Printf("bench: no regressions against %s (%d entries)\n", comparePath, len(baseline.Entries))
	return nil
}

func printMarkdown(t *baat.ExperimentTable) {
	fmt.Printf("### %s — %s\n\n", strings.ToUpper(t.ID[:1])+t.ID[1:], t.Title)
	fmt.Println("| " + strings.Join(t.Columns, " | ") + " |")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Println("| " + strings.Join(seps, " | ") + " |")
	for _, row := range t.Rows {
		fmt.Println("| " + strings.Join(row, " | ") + " |")
	}
	fmt.Println()
	if len(t.Values) > 0 {
		keys := make([]string, 0, len(t.Values))
		for k := range t.Values {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		fmt.Println("Headline values:")
		for _, k := range keys {
			fmt.Printf("- `%s` = %.4f\n", k, t.Values[k])
		}
		fmt.Println()
	}
	for _, n := range t.Notes {
		fmt.Printf("> %s\n", n)
	}
	fmt.Println()
}
