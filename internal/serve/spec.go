package serve

import (
	"fmt"
	"strings"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/rng"
	"github.com/green-dc/baat/internal/sim"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/telemetry"
	"github.com/green-dc/baat/internal/workload"
)

// maxDays bounds one run's horizon. A served simulation pre-draws its
// weather sequence and retains per-day checkpoints, so the horizon must be
// finite; ten simulated years is far beyond any battery study's window.
const maxDays = 3650

// maxNodes bounds one run's fleet. sim.New allocates the whole fleet's
// component state up front, about 1.5 KB a node, so the bound keeps one
// run near 100 MB. It is the largest fleet the perf suite gates
// (fleet_step/nodes=65536).
const maxNodes = 65536

// maxJobsPerDay bounds one run's morning batch, which the workload
// generator allocates as one slice each simulated morning. No test or
// benchmark asks for more than a few hundred jobs a day (aging-stress asks
// for 307), so 65,536 leaves two orders of magnitude of headroom.
const maxJobsPerDay = 65536

// maxWorkers bounds one run's node-stepping workers. Each simulated day
// the engine starts one pool goroutine per worker, trimmed only to the
// fleet's shard count (1,024 at maxNodes), and the daemon hosts many runs
// at once. A run gains nothing from more workers than its host has CPUs,
// so 64 leaves room for large hosts; -1 (all CPUs) stays accepted.
const maxWorkers = 64

// RunSpec is the JSON body of POST /runs: everything needed to construct
// one simulation, mirroring the cmd/baatsim flags so a served run with a
// given spec reproduces the CLI run with the same settings (identical
// seeds, identical weather stream). Zero values take the CLI's defaults.
//
// The spec is also the unit of mutation bookkeeping: the mutate endpoint
// edits the live spec field-for-field, and every checkpoint snapshots the
// spec that was in force when it was written, so a fork rebuilds its
// simulator from exactly the configuration that produced the envelope.
type RunSpec struct {
	// Name is a free-form label echoed in statuses and listings.
	Name string `json:"name,omitempty"`
	// Policy selects the power-management scheme by registry name (any
	// name `baatsim policies` lists, aliases accepted; default baat).
	Policy string `json:"policy,omitempty"`
	// PolicyOptions are the policy's option knobs (the same key=value
	// vocabulary as the CLI's -policy flag, e.g. {"floor": "0.25"}).
	// Normalization validates them against the policy's registered option
	// set before any run state exists.
	PolicyOptions map[string]string `json:"policy_options,omitempty"`
	// Days is the simulated horizon (default 7, max 3650).
	Days int `json:"days,omitempty"`
	// Nodes is the fleet size (default 6, the prototype; max 65536).
	Nodes int `json:"nodes,omitempty"`
	// Seed pins all randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Weather is sunny | cloudy | rainy | mix (default mix). Mix draws
	// the day sequence from the run seed's cli-weather stream, exactly as
	// cmd/baatsim does.
	Weather string `json:"weather,omitempty"`
	// Sunshine is the sunshine fraction for mix weather (default 0.5).
	Sunshine *float64 `json:"sunshine,omitempty"`
	// JobsPerDay is the batch arrivals per morning (default 2, max 65536).
	JobsPerDay *int `json:"jobs_per_day,omitempty"`
	// SolarScale scales the PV array relative to the prototype
	// (default 1.5).
	SolarScale *float64 `json:"solar_scale,omitempty"`
	// Accel is the battery aging acceleration factor (default 1).
	Accel *float64 `json:"accel,omitempty"`
	// Workers is the node-stepping worker count (default 1; -1 = all
	// CPUs; max 64; never changes results).
	Workers int `json:"workers,omitempty"`
	// Faults names a fault-injection profile: none | sensor | battery |
	// power | chaos (default none).
	Faults string `json:"faults,omitempty"`
	// BatteryModel selects the battery tier: leadacid | linear | lfp
	// (default leadacid).
	BatteryModel string `json:"battery_model,omitempty"`
	// PrototypeServices deploys the six paper workloads as persistent
	// services (default true).
	PrototypeServices *bool `json:"prototype_services,omitempty"`
	// CheckpointEvery stores an in-memory checkpoint after every N
	// completed days (default 1 — every day is forkable; -1, or any
	// negative value, disables checkpointing and therefore forking).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// withDefaults returns the spec with every zero field replaced by its
// default, without validating.
func (sp RunSpec) withDefaults() RunSpec {
	if sp.Policy == "" {
		sp.Policy = "baat"
	}
	if sp.Days == 0 {
		sp.Days = 7
	}
	if sp.Nodes == 0 {
		sp.Nodes = 6
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Weather == "" {
		sp.Weather = "mix"
	}
	sp.Weather = strings.ToLower(sp.Weather)
	if sp.Sunshine == nil {
		sp.Sunshine = ptr(0.5)
	}
	if sp.JobsPerDay == nil {
		sp.JobsPerDay = ptr(2)
	}
	if sp.SolarScale == nil {
		sp.SolarScale = ptr(1.5)
	}
	if sp.Accel == nil {
		sp.Accel = ptr(1.0)
	}
	if sp.Faults == "" {
		sp.Faults = "none"
	}
	sp.Faults = strings.ToLower(sp.Faults)
	if sp.BatteryModel == "" {
		sp.BatteryModel = "leadacid"
	}
	if sp.PrototypeServices == nil {
		sp.PrototypeServices = ptr(true)
	}
	if sp.CheckpointEvery == 0 {
		sp.CheckpointEvery = 1
	} else if sp.CheckpointEvery < 0 {
		sp.CheckpointEvery = -1 // normalized "never"
	}
	return sp
}

func ptr[T any](v T) *T { return &v }

// normalize fills defaults and validates every field, returning the
// canonical spec. All validation that can fail without building a
// simulator happens here, so the API can answer 400 with a precise message
// before any state exists.
func (sp RunSpec) normalize() (RunSpec, error) {
	sp = sp.withDefaults()
	norm, err := core.Normalize(core.PolicySpec{Name: sp.Policy, Options: sp.PolicyOptions})
	if err != nil {
		return sp, err
	}
	// Build validates option *values* too (Normalize only checks keys), so
	// a bad floor or duration fails here with a 400, not at run start.
	if _, err := core.Build(norm); err != nil {
		return sp, err
	}
	sp.Policy = norm.Name
	sp.PolicyOptions = norm.Options
	if sp.Days < 0 || sp.Days > maxDays {
		return sp, fmt.Errorf("days must be in [1, %d], got %d", maxDays, sp.Days)
	}
	if sp.Nodes < 0 || sp.Nodes > maxNodes {
		return sp, fmt.Errorf("nodes must be in [1, %d], got %d", maxNodes, sp.Nodes)
	}
	if sp.Workers < -1 || sp.Workers > maxWorkers {
		return sp, fmt.Errorf("workers must be in [-1, %d], got %d", maxWorkers, sp.Workers)
	}
	switch sp.Weather {
	case "sunny", "cloudy", "rainy":
	case "mix":
		loc := solar.Location{SunshineFraction: *sp.Sunshine}
		if err := loc.Validate(); err != nil {
			return sp, err
		}
	default:
		return sp, fmt.Errorf("unknown weather %q (want sunny, cloudy, rainy, or mix)", sp.Weather)
	}
	if *sp.JobsPerDay < 0 || *sp.JobsPerDay > maxJobsPerDay {
		return sp, fmt.Errorf("jobs_per_day must be in [0, %d], got %d", maxJobsPerDay, *sp.JobsPerDay)
	}
	if *sp.SolarScale <= 0 {
		return sp, fmt.Errorf("solar_scale must be positive, got %v", *sp.SolarScale)
	}
	if *sp.Accel <= 0 {
		return sp, fmt.Errorf("accel must be positive, got %v", *sp.Accel)
	}
	if _, err := faults.Profile(sp.Faults, 0); err != nil {
		return sp, err
	}
	if _, err := battery.ParseKind(sp.BatteryModel); err != nil {
		return sp, err
	}
	return sp, nil
}

// policySpec assembles the spec's registry identity. Normalization stored
// the canonical name and options, so the result round-trips through
// core.Normalize unchanged.
func (sp RunSpec) policySpec() core.PolicySpec {
	return core.PolicySpec{Name: sp.Policy, Options: sp.PolicyOptions}.Clone()
}

// weatherFor materializes the run's full weather sequence up front — the
// property that makes pause, resume, and forking deterministic: the skies a
// run will see are fixed at creation (and only change through an explicit
// sunshine mutation, which redraws the remaining suffix from its own named
// stream).
func weatherFor(sp RunSpec) []solar.Weather {
	fixed := map[string]solar.Weather{
		"sunny":  solar.Sunny,
		"cloudy": solar.Cloudy,
		"rainy":  solar.Rainy,
	}
	seq := make([]solar.Weather, sp.Days)
	if w, ok := fixed[sp.Weather]; ok {
		for i := range seq {
			seq[i] = w
		}
		return seq
	}
	stream := rng.New(sp.Seed, rng.CLIWeather)
	loc := solar.Location{SunshineFraction: *sp.Sunshine}
	for i := range seq {
		seq[i] = loc.DrawWeather(stream.Rand)
	}
	return seq
}

// simConfig converts a normalized spec into the engine configuration.
func simConfig(sp RunSpec) (sim.Config, error) {
	cfg := sim.DefaultConfig()
	cfg.Policy = sp.policySpec()
	cfg.Seed = sp.Seed
	cfg.Nodes = sp.Nodes
	cfg.Workers = sp.Workers
	cfg.JobsPerDay = *sp.JobsPerDay
	cfg.Solar.Scale = *sp.SolarScale
	cfg.Node.AgingConfig.AccelFactor = *sp.Accel
	bk, err := battery.ParseKind(sp.BatteryModel)
	if err != nil {
		return sim.Config{}, err
	}
	ncfg, err := cfg.Node.WithBatteryModel(bk)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Node = ncfg
	if *sp.PrototypeServices {
		cfg.Services = workload.PrototypeServices()
	}
	fcfg, err := faults.Profile(sp.Faults, 0)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Faults = fcfg
	return cfg, nil
}

// buildSim constructs the simulator for a normalized spec, instrumented
// with the run's own telemetry recorder. The policy itself is built by the
// engine from cfg.Policy via the registry.
func buildSim(sp RunSpec, rec *telemetry.Recorder) (*sim.Simulator, error) {
	cfg, err := simConfig(sp)
	if err != nil {
		return nil, err
	}
	cfg.Telemetry = rec
	return sim.New(cfg)
}

// Mutation is the JSON body of POST /runs/{id}/mutate: each present field
// rewrites one scenario knob mid-flight. Fields that match the run's
// current spec are reported as no-ops and change nothing — the guarantee
// the concurrent-hammering tests lean on.
type Mutation struct {
	// Policy swaps the power-management scheme between days (any registry
	// name). Omitting it while sending PolicyOptions retunes the *current*
	// policy's options.
	Policy string `json:"policy,omitempty"`
	// PolicyOptions are the option knobs for the (possibly new) policy.
	// They replace the run's current option set wholesale; a policy swap
	// without options resets to the policy's defaults.
	PolicyOptions map[string]string `json:"policy_options,omitempty"`
	// Sunshine re-rolls the remaining weather suffix at a new sunshine
	// fraction (mix-weather runs only).
	Sunshine *float64 `json:"sunshine,omitempty"`
	// Faults swaps the fault-injection profile between days.
	Faults *string `json:"faults,omitempty"`
}
