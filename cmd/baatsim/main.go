// Command baatsim runs the simulated BAAT prototype under one of the
// registered power-management policies and reports per-day and end-of-run
// statistics. `baatsim policies` lists the registry; `baatsim serve` hosts
// many simulations behind an HTTP/JSON control plane (see docs/SERVICE.md).
//
// Examples:
//
//	baatsim -policy baat -days 10 -sunshine 0.5
//	baatsim -policy "baat,floor=0.25,trigger=0.40" -days 10
//	baatsim -policy ebuff -weather cloudy -days 3 -csv trace.csv
//	baatsim -policy baat-f -until-eol -accel 10 -sunshine 0.6
//	baatsim policies
//	baatsim serve -addr 127.0.0.1:8080
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	baat "github.com/green-dc/baat"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "serve":
		err = runServe(args[1:])
	case len(args) > 0 && args[0] == "policies":
		err = runPolicies(args[1:])
	default:
		err = run(args)
	}
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "baatsim:", err)
		os.Exit(1)
	}
}

// cliFlags holds every flag of the single-run command, so parsing,
// validation, and execution can live in separate functions. The scenario
// flags fill spec, the daemon's run spec; the rest are what the daemon has
// no field for: the battery mix, the fault seed, and how this process runs.
type cliFlags struct {
	spec       baat.SimServiceRunSpec
	policy     string
	untilEOL   bool
	maxDays    int
	csvPath    string
	faultsSeed int64
	ckEvery    int
	ckPath     string
	resumePath string
	telAddr    string
	telHold    time.Duration
	battMix    string
}

// registerFlags declares the single-run flag set. The scenario flags start
// at the run spec's defaults.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{spec: baat.SimServiceRunSpec{}.WithDefaults()}
	sp := &f.spec
	fs.StringVar(&f.policy, "policy", sp.Policy, "policy spec: name[,key=value...] (see 'baatsim policies')")
	fs.IntVar(&sp.Days, "days", sp.Days, "number of days to simulate")
	fs.StringVar(&sp.Weather, "weather", sp.Weather, "weather: sunny | cloudy | rainy | mix")
	fs.Float64Var(sp.Sunshine, "sunshine", *sp.Sunshine, "sunshine fraction for -weather mix")
	fs.Int64Var(&sp.Seed, "seed", sp.Seed, "random seed")
	fs.IntVar(&sp.Nodes, "nodes", sp.Nodes, "number of battery nodes")
	fs.IntVar(&sp.Workers, "workers", sp.Workers, "node-stepping workers (0 or 1 = serial, -1 = all CPUs; never changes results)")
	fs.Float64Var(sp.Accel, "accel", *sp.Accel, "battery aging acceleration factor")
	fs.BoolVar(&f.untilEOL, "until-eol", false, "run until the first battery reaches end-of-life")
	fs.IntVar(&f.maxDays, "max-days", 365, "day cap for -until-eol")
	fs.BoolVar(sp.PrototypeServices, "prototype-services", *sp.PrototypeServices, "deploy the six paper workloads as persistent services")
	fs.IntVar(sp.JobsPerDay, "jobs", *sp.JobsPerDay, "batch jobs submitted per day")
	fs.Float64Var(sp.SolarScale, "solar-scale", *sp.SolarScale, "PV array scale relative to the prototype")
	fs.StringVar(&f.csvPath, "csv", "", "write per-day stats to this CSV file")
	fs.StringVar(&sp.Faults, "faults", sp.Faults, "fault-injection profile: "+strings.Join(baat.FaultProfileNames(), " | "))
	fs.Int64Var(&f.faultsSeed, "faults-seed", 0, "fault injector seed (0 derives from -seed via the named fault substream)")
	fs.IntVar(&f.ckEvery, "checkpoint-every", 0, "write a checkpoint every N simulated days (requires -checkpoint; fixed-days runs only)")
	fs.StringVar(&f.ckPath, "checkpoint", "", "checkpoint file written by -checkpoint-every")
	fs.StringVar(&f.resumePath, "resume", "", "resume a fixed-days run from this checkpoint; -days stays the total horizon")
	fs.StringVar(&f.telAddr, "telemetry-addr", "", "serve /metrics, /events, and /debug/pprof on this address (e.g. :8080; empty = off)")
	fs.DurationVar(&f.telHold, "telemetry-hold", 0, "keep the telemetry endpoint alive this long after the run (so scrapers catch the final state)")
	fs.StringVar(&sp.BatteryModel, "battery-model", sp.BatteryModel, "battery model tier: leadacid | linear | lfp")
	fs.StringVar(&f.battMix, "battery-mix", "", "mixed fleet as model=fraction pairs, e.g. 'leadacid=0.5,lfp=0.5' (fractions sum to 1; exclusive with -battery-model)")
	return f
}

// parseFlags parses and cross-validates the single-run command line, and
// normalizes its run spec: an unknown name or a bad value fails here,
// before any simulator state (or telemetry endpoint) exists.
func parseFlags(args []string) (*cliFlags, error) {
	fs := flag.NewFlagSet("baatsim", flag.ContinueOnError)
	f := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q (flags only; did you mean 'baatsim serve'?)", fs.Arg(0))
	}
	if err := validateFlags(fs, f); err != nil {
		return nil, err
	}
	ps, err := baat.ParsePolicySpec(f.policy)
	if err != nil {
		return nil, err
	}
	f.spec.Policy, f.spec.PolicyOptions = ps.Name, ps.Options
	if f.untilEOL {
		// An end-of-life run reads neither -days nor -weather: it draws mix
		// weather at -sunshine for up to -max-days. Pinning both checks only
		// what the run reads.
		f.spec.Days, f.spec.Weather = 1, "mix"
	}
	if f.spec, err = f.spec.Normalize(); err != nil {
		return nil, err
	}
	return f, nil
}

// validateFlags rejects flag combinations that cannot mean what the user
// intended — before any simulator state is constructed, so the error names
// the conflict instead of surfacing later as a config-hash mismatch or a
// silently ignored knob. fs.Visit reports only flags explicitly set on the
// command line, which distinguishes "asked for the default" from "didn't
// ask".
func validateFlags(fs *flag.FlagSet, f *cliFlags) error {
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if set["battery-mix"] && set["battery-model"] {
		return errors.New("-battery-mix and -battery-model are mutually exclusive: a mixed fleet already assigns every node a model")
	}
	if f.resumePath != "" && f.untilEOL {
		return errors.New("-resume cannot be combined with -until-eol: only fixed-days runs checkpoint")
	}
	if f.untilEOL && (set["checkpoint-every"] || set["checkpoint"]) {
		return errors.New("-until-eol cannot be combined with checkpointing: checkpoints cover fixed-days runs only")
	}
	if f.ckEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be positive, got %d", f.ckEvery)
	}
	if f.ckEvery > 0 && f.ckPath == "" {
		return errors.New("-checkpoint-every requires -checkpoint")
	}
	if f.ckPath != "" && f.ckEvery == 0 {
		return errors.New("-checkpoint requires -checkpoint-every (a file with no cadence would never be written)")
	}
	if set["telemetry-hold"] && f.telAddr == "" {
		return errors.New("-telemetry-hold requires -telemetry-addr (there is no endpoint to hold open)")
	}
	return nil
}

func run(args []string) error {
	f, err := parseFlags(args)
	if err != nil {
		return err
	}

	var rec *baat.Recorder
	if f.telAddr != "" {
		rec = baat.NewRecorder()
		srv, err := baat.ServeTelemetry(rec, f.telAddr)
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("telemetry: http://%s/metrics (events at /events, profiles at /debug/pprof/)\n", srv.Addr())
	}

	scfg, err := f.spec.SimConfig()
	if err != nil {
		return err
	}
	scfg.Telemetry = rec
	scfg.Faults.Seed = f.faultsSeed
	if f.battMix != "" {
		// The mix assigns each node its tier. The spec keeps the default
		// tier (validateFlags rejects -battery-model with a mix), whose
		// node config is DefaultSimConfig's own.
		if scfg.BatteryFleet, err = parseBatteryMix(f.battMix); err != nil {
			return err
		}
	}
	s, err := baat.NewSimulator(scfg)
	if err != nil {
		return err
	}
	resumedDays := 0
	if f.resumePath != "" {
		if err := resumeFromFile(s, f.resumePath); err != nil {
			return err
		}
		resumedDays = s.Day()
		fmt.Printf("resumed from %s after day %d\n", f.resumePath, resumedDays)
	}

	var res *baat.SimResult
	if f.untilEOL {
		res, err = s.RunUntilEndOfLife(baat.Location{SunshineFraction: *f.spec.Sunshine}, f.maxDays)
	} else {
		seq := f.spec.WeatherSequence()
		// A resumed run replays only the weather suffix the checkpoint has
		// not consumed; the -days horizon counts from day one.
		if done := s.Day(); done > 0 {
			if done >= len(seq) {
				return fmt.Errorf("checkpoint already covers day %d of a %d-day horizon", done, f.spec.Days)
			}
			seq = seq[done:]
		}
		if f.ckEvery > 0 {
			res, err = s.RunWithCheckpoints(seq, f.ckEvery, func(day int, data []byte) error {
				if werr := writeFileAtomic(f.ckPath, data); werr != nil {
					return werr
				}
				fmt.Printf("checkpoint after day %d written to %s\n", day, f.ckPath)
				return nil
			})
		} else {
			res, err = s.Run(seq)
		}
	}
	if err != nil {
		return err
	}
	if resumedDays > 0 {
		// The Result covers only the days this process executed; the
		// simulator's serialized history covers the checkpointed prefix
		// too, so the report spans the whole horizon.
		res.Days = s.History()
		res.Throughput = 0
		for _, d := range res.Days {
			res.Throughput += d.Throughput
		}
	}

	printResult(res, *f.spec.Accel)
	printPredictions(s, *f.spec.Accel)
	if f.csvPath != "" {
		if err := writeCSV(f.csvPath, res); err != nil {
			return err
		}
		fmt.Printf("per-day stats written to %s\n", f.csvPath)
	}
	if rec != nil && f.telHold > 0 {
		fmt.Printf("holding telemetry endpoint for %v\n", f.telHold)
		time.Sleep(f.telHold)
	}
	return nil
}

// runPolicies is the `baatsim policies` subcommand: it renders the policy
// registry — every name -policy (and the serve API) accepts, with each
// policy's option vocabulary.
func runPolicies(args []string) error {
	fs := flag.NewFlagSet("baatsim policies", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	for _, info := range baat.RegisteredPolicies() {
		fmt.Printf("%s (%s)\n", info.Name, info.Display)
		if len(info.Aliases) > 0 {
			fmt.Printf("  aliases: %s\n", strings.Join(info.Aliases, ", "))
		}
		fmt.Printf("  %s\n", info.Doc)
		keys := make([]string, 0, len(info.Options))
		for k := range info.Options {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  -policy %s,%s=...  %s\n", info.Name, k, info.Options[k])
		}
		fmt.Println()
	}
	return nil
}

// parseBatteryMix parses the -battery-mix syntax: comma-separated
// model=fraction pairs, e.g. "leadacid=0.5,lfp=0.5". Fraction validation
// (positive, summing to 1) is left to the simulator's config check.
func parseBatteryMix(s string) ([]baat.BatteryShare, error) {
	var shares []baat.BatteryShare
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, frac, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("battery mix entry %q is not model=fraction", part)
		}
		kind, err := baat.ParseBatteryKind(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(frac), 64)
		if err != nil {
			return nil, fmt.Errorf("battery mix entry %q: bad fraction: %v", part, err)
		}
		shares = append(shares, baat.BatteryShare{Model: kind, Fraction: f})
	}
	if len(shares) == 0 {
		return nil, fmt.Errorf("battery mix %q contains no model=fraction pairs", s)
	}
	return shares, nil
}

// resumeFromFile restores a checkpoint written by -checkpoint-every.
func resumeFromFile(s *baat.Simulator, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	return s.ResumeFrom(f)
}

// writeFileAtomic writes data via a temp file + rename so an interrupted
// run never leaves a truncated checkpoint behind.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func printResult(res *baat.SimResult, accel float64) {
	fmt.Printf("policy: %s\n\n", res.Policy)
	fmt.Printf("%-5s %-7s %12s %12s %12s %12s\n",
		"day", "weather", "throughput", "downtime", "low-SoC", "solar kWh")
	for _, d := range res.Days {
		fmt.Printf("%-5d %-7s %12.2f %12s %12s %12.2f\n",
			d.Day, d.Weather, d.Throughput, d.Downtime, d.LowSoCTime, float64(d.SolarEnergy)/1000)
	}
	fmt.Println()
	fmt.Printf("total throughput: %.2f work units\n", res.Throughput)
	if res.FleetLifetime > 0 {
		real := time.Duration(float64(res.FleetLifetime) * accel)
		fmt.Printf("fleet lifetime (first battery at end-of-life): %.1f days (≈%.1f real days at accel %.0fx)\n",
			res.FleetLifetime.Hours()/24, real.Hours()/24, accel)
	}
	fmt.Println("\nnode summary:")
	fmt.Printf("%-8s %8s %8s %8s %8s %8s %8s %10s\n",
		"node", "health", "SoC", "NAT", "CF", "PC", "DDT", "downtime")
	for _, n := range res.Nodes {
		fmt.Printf("%-8s %8.3f %8.2f %8.4f %8.2f %8.3f %8.3f %10s\n",
			n.ID, n.Health, n.SoC, n.Metrics.NAT, n.Metrics.CF, n.Metrics.PC, n.Metrics.DDT, n.Downtime)
	}
	if worst, ok := res.WorstNode(); ok {
		fmt.Printf("\nworst node (most Ah throughput): %s (NAT %.4f, health %.3f)\n",
			worst.ID, worst.Metrics.NAT, worst.Health)
	}
}

func printPredictions(s *baat.Simulator, accel float64) {
	fmt.Println("\nprojected battery end-of-life (at the observed damage rate):")
	for _, p := range baat.PredictLifetimes(s.Nodes()) {
		if p.TimeToEndOfLife > 100*365*24*time.Hour {
			fmt.Printf("  %-8s health %.3f  no measurable wear yet\n", p.NodeID, p.Health)
			continue
		}
		real := time.Duration(float64(p.TimeToEndOfLife) * accel)
		fmt.Printf("  %-8s health %.3f  ≈%.0f days to end-of-life\n",
			p.NodeID, p.Health, real.Hours()/24)
	}
}

func writeCSV(path string, res *baat.SimResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"day", "weather", "throughput", "downtime_s", "low_soc_s", "solar_wh"}); err != nil {
		return err
	}
	for _, d := range res.Days {
		rec := []string{
			strconv.Itoa(d.Day),
			d.Weather.String(),
			strconv.FormatFloat(d.Throughput, 'f', 4, 64),
			strconv.FormatFloat(d.Downtime.Seconds(), 'f', 0, 64),
			strconv.FormatFloat(d.LowSoCTime.Seconds(), 'f', 0, 64),
			strconv.FormatFloat(float64(d.SolarEnergy), 'f', 1, 64),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return w.Error()
}
