// Package sim is the discrete-time simulation engine that replays the BAAT
// prototype's operation (DSN'15 §V): a fleet of battery nodes powered by a
// shared solar feed, workloads hosted in VMs placed by a power-management
// policy, and the daily operating window of the testbed (first server on at
// 08:30, all servers down after 18:30).
//
// One engine run replays identical solar days and job arrivals for any
// policy, which is the simulated analogue of the paper's methodology of
// matching "the most similar solar generation scenarios" across the four
// policy experiments (§VI-B).
//
// Setting Config.Telemetry instruments the run with the counters, gauges,
// histograms, and traced events of internal/telemetry (tick and placement
// counts, the Fig 19 SoC distribution, policy migration/DVFS decisions,
// battery end-of-life events); see docs/OBSERVABILITY.md for the full
// catalogue.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/fleet"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/rng"
	"github.com/green-dc/baat/internal/signal"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/telemetry"
	"github.com/green-dc/baat/internal/units"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

// Config parameterizes a simulation.
type Config struct {
	// Policy selects the power-management policy from the core registry:
	// a canonical name plus optional string options (see core.PolicySpec
	// and `baatsim policies`). It is the single serializable policy
	// identity — the simulator builds the controller itself via
	// core.Build, and the normalized spec participates in the checkpoint
	// config hash so a resume under a different policy is rejected.
	Policy core.PolicySpec
	// Nodes is the number of battery nodes (the prototype has six).
	Nodes int
	// Node configures each battery node.
	Node node.Config
	// Solar configures the PV feed (Scale is typically set to track fleet
	// size).
	Solar solar.Config
	// Tick is the simulation step (1 minute reproduces the prototype's
	// sampling cadence).
	Tick time.Duration
	// ControlPeriod is how often the policy's Control hook runs.
	ControlPeriod time.Duration
	// WindowStart and WindowEnd bound the operating day (§V-B).
	WindowStart time.Duration
	WindowEnd   time.Duration
	// JobsPerDay is how many batch VMs arrive each morning.
	JobsPerDay int
	// ServiceVMs is how many long-running service VMs are placed on the
	// first day and persist.
	ServiceVMs int
	// Services optionally replaces ServiceVMs with an explicit list of
	// persistent service profiles. Heterogeneous lists reproduce the
	// prototype's static assignment of six different workloads to six
	// servers (§V-B), the regime where aging variation between nodes is
	// largest and hiding matters most.
	Services []workload.Profile
	// Seed drives all randomness (weather, cloud patterns, job mix,
	// manufacturing variation, policy tie-breaks).
	Seed int64
	// ManufacturingSigma is the relative spread of per-unit battery
	// capacity/resistance variation (§IV-B-1).
	ManufacturingSigma float64
	// Workers is the number of concurrent workers advancing node physics
	// each tick. 0 and 1 (the defaults) step serially; negative values
	// resolve to runtime.GOMAXPROCS(0); counts above the shard count are
	// trimmed to it. Work is distributed shard-by-shard (ShardSize): solar
	// grants are fixed before the fan-out, each shard owns all state its
	// nodes touch, and the engine reads the shards' tallies in shard order,
	// so the worker count never changes results — parallel runs are
	// bit-identical to serial ones (enforced by this package's equivalence
	// tests).
	Workers int
	// ShardSize is the rack-group partition width of the fleet's node
	// slice — the unit of parallel work. Zero means
	// fleet.DefaultShardSize. A pure performance knob: like Workers it
	// never changes results, and it is excluded from the checkpoint config
	// hash.
	ShardSize int `json:",omitempty"`
	// ParallelThreshold is the fleet size below which Workers > 1 falls
	// back to serial stepping: for small fleets the fan-out handshake
	// costs more than the physics it parallelizes. Zero means
	// DefaultParallelThreshold; negative forces the parallel path at any
	// size (the equivalence tests use this). Results are identical either
	// way, so it too is excluded from the checkpoint config hash.
	ParallelThreshold int `json:",omitempty"`
	// Telemetry instruments the run: tick/day/placement counters, the
	// Fig 19 SoC histogram, policy decision counts and events, and battery
	// step counters, all under the canonical names of
	// internal/telemetry/names.go. Nil (the default) records nothing at
	// effectively no cost.
	Telemetry *telemetry.Recorder
	// Faults configures deterministic fault injection (sensor corruption,
	// battery degradation shocks, power disturbances). An empty config —
	// the default — injects nothing and leaves the clean path untouched.
	// Faults.Seed zero copies Config.Seed; the injector draws from its own
	// named substream of that seed (rng.Faults), so one Config.Seed still
	// pins the entire run without any stream collision.
	Faults faults.Config
	// BatteryFleet declares a mixed battery fleet: contiguous blocks of
	// nodes, each running a different battery model tier (e.g. legacy
	// lead-acid racks plus LFP retrofits). Fractions must sum to 1; block
	// boundaries round to whole nodes cumulatively, the last block absorbs
	// the remainder. Each block uses the default spec and aging config for
	// its chemistry (battery.DefaultSpecFor / aging.DefaultModelConfigFor)
	// with Config.Node's AccelFactor preserved. Empty — the default —
	// keeps the fleet homogeneous on Config.Node's own battery spec.
	// Participates in the checkpoint config hash: resuming under a
	// different fleet mix is rejected.
	BatteryFleet []BatteryShare `json:",omitempty"`
}

// BatteryShare is one block of a mixed battery fleet: a model tier and the
// fraction of the fleet it covers.
type BatteryShare struct {
	// Model selects the battery model tier for this block.
	Model battery.Kind
	// Fraction is this block's share of the fleet, in (0, 1].
	Fraction float64
}

// DefaultParallelThreshold is the fleet size at which multi-worker
// stepping starts paying for itself; below it the engine steps serially
// even when Workers > 1. Chosen from the bench suite: at a few hundred
// nodes per tick the physics dwarfs the pool handshake.
const DefaultParallelThreshold = 256

// DefaultConfig mirrors the prototype: six nodes, one-minute ticks,
// five-minute control, 08:30–18:30 window.
func DefaultConfig() Config {
	return Config{
		Policy:             core.PolicySpec{Name: "baat"},
		Nodes:              6,
		Node:               node.DefaultConfig(),
		Solar:              solar.DefaultConfig(),
		Tick:               time.Minute,
		ControlPeriod:      5 * time.Minute,
		WindowStart:        8*time.Hour + 30*time.Minute,
		WindowEnd:          18*time.Hour + 30*time.Minute,
		JobsPerDay:         7,
		ServiceVMs:         1,
		Seed:               1,
		ManufacturingSigma: 0.10,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("sim: need at least one node, got %d", c.Nodes)
	}
	if err := c.Node.Validate(); err != nil {
		return err
	}
	if err := c.Solar.Validate(); err != nil {
		return err
	}
	if c.Tick <= 0 {
		return fmt.Errorf("sim: tick must be positive, got %v", c.Tick)
	}
	if c.ControlPeriod < c.Tick {
		return fmt.Errorf("sim: control period %v must be >= tick %v", c.ControlPeriod, c.Tick)
	}
	if c.WindowStart < 0 || c.WindowEnd > 24*time.Hour || c.WindowEnd <= c.WindowStart {
		return fmt.Errorf("sim: need 0 <= window start < end <= 24h (got %v, %v)", c.WindowStart, c.WindowEnd)
	}
	if c.JobsPerDay < 0 || c.ServiceVMs < 0 {
		return fmt.Errorf("sim: job counts must be non-negative")
	}
	for i, p := range c.Services {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("sim: service %d: %w", i, err)
		}
	}
	if c.ShardSize < 0 {
		return fmt.Errorf("sim: shard size must be non-negative, got %d", c.ShardSize)
	}
	if !(c.ManufacturingSigma >= 0 && c.ManufacturingSigma <= 0.5) {
		return fmt.Errorf("sim: manufacturing sigma must be in [0, 0.5], got %v", c.ManufacturingSigma)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if len(c.BatteryFleet) > 0 {
		sum := 0.0
		for j, sh := range c.BatteryFleet {
			if !sh.Model.Valid() {
				return fmt.Errorf("sim: battery fleet share %d: unknown battery model %q", j, sh.Model)
			}
			if !(sh.Fraction > 0 && sh.Fraction <= 1) {
				return fmt.Errorf("sim: battery fleet share %d: fraction must be in (0, 1], got %v", j, sh.Fraction)
			}
			sum += sh.Fraction
		}
		if !(math.Abs(sum-1) <= 1e-9) {
			return fmt.Errorf("sim: battery fleet fractions must sum to 1, got %v", sum)
		}
	}
	return nil
}

// batteryKinds resolves BatteryFleet into one model kind per node:
// contiguous blocks whose boundaries are the cumulative fractions rounded
// to whole nodes, with the last block extended to cover the remainder. Nil
// when the fleet is homogeneous (no BatteryFleet declared).
func (c Config) batteryKinds() []battery.Kind {
	if len(c.BatteryFleet) == 0 {
		return nil
	}
	kinds := make([]battery.Kind, c.Nodes)
	cum, start := 0.0, 0
	for j, sh := range c.BatteryFleet {
		cum += sh.Fraction
		end := int(math.Round(cum * float64(c.Nodes)))
		if j == len(c.BatteryFleet)-1 || end > c.Nodes {
			end = c.Nodes
		}
		for i := start; i < end; i++ {
			kinds[i] = sh.Model.Normalize()
		}
		if end > start {
			start = end
		}
	}
	return kinds
}

// DayStats summarizes one simulated day.
type DayStats struct {
	Day        int
	Weather    solar.Weather
	Throughput float64
	// Downtime is the worst in-window dark time across nodes.
	Downtime time.Duration
	// LowSoCTime is the worst per-node time spent below 40 % SoC within
	// the operating window (Fig 18's metric).
	LowSoCTime time.Duration
	// SolarEnergy is fleet solar consumption for the day.
	SolarEnergy units.WattHour
	// UtilityEnergy is fleet utility (grid-backup) draw for the day, and
	// UtilityCost what it cost at the policy context's tariff. Both stay
	// zero — and out of the JSON — unless Node.UtilityBackup is set.
	UtilityEnergy units.WattHour `json:",omitempty"`
	UtilityCost   float64        `json:",omitempty"`
}

// NodeSummary is the end-of-run state of one node.
type NodeSummary struct {
	ID         string
	Metrics    aging.Metrics
	Health     float64
	SoC        float64
	Throughput float64
	Downtime   time.Duration
	Counters   battery.Counters
}

// Result is the outcome of a simulation run.
type Result struct {
	Policy string
	Days   []DayStats
	Nodes  []NodeSummary
	// SoCHistogram aggregates in-window SoC samples across all nodes into
	// the seven bins of Fig 19.
	SoCHistogram fleet.SoCBins
	// FleetLifetime is the time until the first battery reached
	// end-of-life; zero if no battery did within the run.
	FleetLifetime time.Duration
	// Throughput is total work completed.
	Throughput float64
}

// WorstNode returns the node with the highest NAT (the paper reports worst-
// battery figures, §VI-B). It returns false for an empty fleet.
func (r *Result) WorstNode() (NodeSummary, bool) {
	if len(r.Nodes) == 0 {
		return NodeSummary{}, false
	}
	worst := r.Nodes[0]
	for _, n := range r.Nodes[1:] {
		if n.Metrics.NAT > worst.Metrics.NAT {
			worst = n
		}
	}
	return worst, true
}

// Simulator drives a fleet under one policy.
type Simulator struct {
	cfg    Config
	policy core.Policy
	// fleet owns the node storage (one contiguous slice of nodes, each
	// holding its parts by value, sharded into rack groups); nodes is its
	// view slice — node i is a pointer into that slice, so everything
	// written against *node.Node keeps working while the tick loops walk
	// dense memory.
	fleet *fleet.Fleet
	nodes []*node.Node
	// wxRng drives weather and cloud patterns; policyRng feeds policy
	// tie-breaking. Each is a named PCG substream of Config.Seed
	// (internal/rng), so every policy replays identical solar days (§VI-B's
	// matched-scenario methodology) and every stream position round-trips
	// through Snapshot/Restore. The manufacturing stream is drawn only
	// while New builds the fleet, so it is not kept.
	wxRng     *rng.Stream
	policyRng *rng.Stream
	gen       *workload.Generator
	// forecast is the deterministic solar forecaster feeding the policy
	// signal plane (core.Context.Signals). It observes each day's weather
	// as RunDay opens it and draws forecast noise from its own named
	// substream of Config.Seed, so adding forecasts perturbed no existing
	// stream and golden traces held.
	forecast *signal.SolarForecaster

	// st is the engine's own clock and accounting in its checkpoint shape:
	// Snapshot copies it out, and Restore validates a snapshot and assigns
	// it.
	st      own
	pending []*vm.VM
	// workers is the resolved Config.Workers: the node-physics fan-out
	// width (1 = serial), trimmed to the shard count. parallel reports
	// whether the fan-out is actually used (workers > 1 and the fleet
	// clears ParallelThreshold); pool is the reusable shard-worker pool,
	// started per simulated day by RunDay.
	workers  int
	parallel bool
	pool     *fleet.Pool

	// inj drives deterministic fault injection (nil when Config.Faults is
	// empty); degraded mirrors each node's last observed suspect state so
	// transitions emit exactly one event per edge. After every tick it
	// equals each node's MetricsSuspect(), which is how Restore rebuilds it.
	inj      *faults.Injector
	degraded []bool

	socBins fleet.SoCBins

	// history accumulates the per-day stats of every completed day over
	// the simulator's lifetime. It is serialized state: a resumed run can
	// report the full horizon, not just the days it executed itself. The
	// initial capacity keeps RunDay's append out of the per-day
	// allocation budget for typical horizons.
	history []DayStats

	// Per-tick scratch, one slot per node, sized at construction and
	// reused every step so the steady-state tick path allocates nothing
	// (pinned by the AllocsPerRun guards in alloc_test.go). socOrder,
	// socSnap, socKey and socTmp back bySoC: the index order is sorted
	// against a SoC snapshot read once per call, so the sort does one pack
	// read per node instead of O(n log n).
	demands     []float64
	loadGrant   []float64
	chargeGrant []float64
	socOrder    []int
	socSnap     []float64
	socKey      []uint64
	socTmp      []int

	// Shard-step state: stepOffline carries the current tick's path to the
	// shard workers, and tallies holds what each shard's pass reports back
	// to the engine, one slot per shard.
	stepOffline bool
	tallies     []shardTally

	// Per-day scratch for RunDay's start-of-day baselines.
	dayThr   []float64
	dayDown  []time.Duration
	daySolar []units.WattHour
	dayLow   []time.Duration

	// pctx is the policy context handed to every PlaceVM/Control call.
	// Policies act on it synchronously inside the hook, so one reusable
	// value (with Clock refreshed per call) replaces an allocation per
	// placement attempt and control period.
	pctx core.Context

	// Telemetry handles captured at construction (nil no-ops without a
	// recorder); telSoC mirrors socBins' seven Fig 19 bins.
	tel            *telemetry.Recorder
	telTicks       *telemetry.Counter
	telDays        *telemetry.Counter
	telJobs        *telemetry.Counter
	telPlacements  *telemetry.Counter
	telDeferred    *telemetry.Counter
	telEOL         *telemetry.Counter
	telSoC         *telemetry.Histogram
	telControl     *telemetry.Histogram
	telClock       *telemetry.Gauge
	telMinHealth   *telemetry.Gauge
	telFleetAvgSoC *telemetry.Gauge
	telFaults      *telemetry.Counter
	telDegraded    *telemetry.Counter
	telSuspect     *telemetry.Gauge
}

// New builds a simulator. The controller comes from the policy registry
// via cfg.Policy, so experiments construct every Table 4 scheme against
// identical fleets by varying only the spec.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, err := core.Normalize(cfg.Policy)
	if err != nil {
		return nil, err
	}
	policy, err := core.Build(spec)
	if err != nil {
		return nil, err
	}
	cfg.Policy = spec
	mfgRng := rng.New(cfg.Seed, rng.Manufacturing)
	jobRng := rng.New(cfg.Seed, rng.Jobs)
	wxRng := rng.New(cfg.Seed, rng.Weather)
	policyRng := rng.New(cfg.Seed, rng.Policy)
	gen, err := workload.NewGenerator(jobRng)
	if err != nil {
		return nil, err
	}

	workers := cfg.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}

	s := &Simulator{
		cfg:       cfg,
		policy:    policy,
		wxRng:     wxRng,
		policyRng: policyRng,
		gen:       gen,
		forecast:  signal.NewSolarForecaster(cfg.Seed, signal.DefaultHorizon),
		workers:   workers,
		history:   make([]DayStats, 0, 64),

		tel:            cfg.Telemetry,
		telTicks:       cfg.Telemetry.Counter(telemetry.MetricSimTicks),
		telDays:        cfg.Telemetry.Counter(telemetry.MetricSimDays),
		telJobs:        cfg.Telemetry.Counter(telemetry.MetricSimJobsSubmitted),
		telPlacements:  cfg.Telemetry.Counter(telemetry.MetricSimPlacements),
		telDeferred:    cfg.Telemetry.Counter(telemetry.MetricSimPlacementsDeferred),
		telEOL:         cfg.Telemetry.Counter(telemetry.MetricBatteryEOL),
		telSoC:         cfg.Telemetry.Histogram(telemetry.MetricSoC, telemetry.LinearBounds(0, 1, 7)),
		telControl:     cfg.Telemetry.Histogram(telemetry.MetricSimControlSeconds, controlBounds()),
		telClock:       cfg.Telemetry.Gauge(telemetry.MetricSimClockSeconds),
		telMinHealth:   cfg.Telemetry.Gauge(telemetry.MetricFleetMinHealth),
		telFleetAvgSoC: cfg.Telemetry.Gauge(telemetry.MetricFleetAvgSoC),
		telFaults:      cfg.Telemetry.Counter(telemetry.MetricFaultsInjected),
		telDegraded:    cfg.Telemetry.Counter(telemetry.MetricDegradedTransitions),
		telSuspect:     cfg.Telemetry.Gauge(telemetry.MetricFleetSuspectNodes),
	}
	if cfg.Faults.Enabled() {
		fcfg := cfg.Faults
		if fcfg.Seed == 0 {
			fcfg.Seed = cfg.Seed
		}
		inj, err := faults.NewInjector(fcfg, cfg.Nodes)
		if err != nil {
			return nil, err
		}
		s.inj = inj
		s.degraded = make([]bool, cfg.Nodes)
	}
	kinds := cfg.batteryKinds()
	fl, err := fleet.New(fleet.Config{
		Nodes:     cfg.Nodes,
		ShardSize: cfg.ShardSize,
		Node: func(i int) (node.Config, error) {
			ncfg := cfg.Node
			ncfg.Telemetry = cfg.Telemetry
			if kinds != nil {
				// Swap in the block's battery model before any RNG draw:
				// WithBatteryModel consumes no randomness, so the two
				// manufacturing-variation draws per node below land exactly
				// where they always have and homogeneous goldens hold.
				var err error
				ncfg, err = ncfg.WithBatteryModel(kinds[i])
				if err != nil {
					return node.Config{}, fmt.Errorf("sim: node %d: %w", i, err)
				}
			}
			if cfg.ManufacturingSigma > 0 {
				// The fleet constructor calls this exactly once per node in
				// ascending index order, so each unit's variation draws land
				// on the node they always have and golden traces hold.
				capScale := 1 + mfgRng.NormFloat64()*cfg.ManufacturingSigma
				resScale := 1 + mfgRng.NormFloat64()*cfg.ManufacturingSigma
				ncfg.BatteryOptions = append(append([]battery.Option(nil), ncfg.BatteryOptions...),
					battery.WithManufacturingVariation(
						units.Clamp(capScale, 0.7, 1.3),
						units.Clamp(resScale, 0.7, 1.3),
					))
			}
			return ncfg, nil
		},
	})
	if err != nil {
		return nil, err
	}
	s.fleet = fl
	s.nodes = fl.Views()
	n := cfg.Nodes
	s.demands = make([]float64, n)
	s.loadGrant = make([]float64, n)
	s.chargeGrant = make([]float64, n)
	s.socOrder = make([]int, n)
	s.socSnap = make([]float64, n)
	s.socKey = make([]uint64, n)
	s.socTmp = make([]int, n)

	shards := fl.Shards()
	if s.workers > len(shards) {
		s.workers = len(shards)
	}
	threshold := cfg.ParallelThreshold
	if threshold == 0 {
		threshold = DefaultParallelThreshold
	}
	s.parallel = s.workers > 1 && (threshold < 0 || cfg.Nodes >= threshold)
	if s.parallel {
		s.pool = fleet.NewPool(s.workers, s.runShard)
	}
	s.tallies = make([]shardTally, len(shards))

	s.dayThr = make([]float64, n)
	s.dayDown = make([]time.Duration, n)
	s.daySolar = make([]units.WattHour, n)
	s.dayLow = make([]time.Duration, n)
	s.pctx = core.Context{
		Nodes:     s.nodes,
		Rng:       s.policyRng.Rand,
		Telemetry: s.tel,
		Signals:   signal.Signals{Solar: s.forecast, Price: signal.DefaultTOUTariff()},
	}
	return s, nil
}

// Nodes exposes the fleet (read-mostly; used by experiment harnesses).
func (s *Simulator) Nodes() []*node.Node { return append([]*node.Node(nil), s.nodes...) }

// SetPolicy swaps the power-management policy mid-run. The evaluation ages
// all batteries synchronously under a neutral scheme and then measures one
// day per policy on the shared aged state (§VI-B); SetPolicy is how a
// harness reproduces that on a single fleet.
//
// The spec is normalized and built *before* the running controller is
// touched: a spec that fails validation (unknown name, bad option) leaves
// the current policy in place and the run unharmed, so a control plane can
// reject a bad mid-flight swap without losing the simulation.
//
// The policy spec participates in the checkpoint config hash, so swapping
// it changes the simulator's ConfigHash: checkpoints written after the
// swap resume only into simulators configured with the new spec (and older
// checkpoints only into the old one). Callers that checkpoint across
// mutations must keep the config that was live at each checkpoint —
// internal/serve snapshots its run spec alongside every envelope for
// exactly this reason.
func (s *Simulator) SetPolicy(spec core.PolicySpec) error {
	norm, err := core.Normalize(spec)
	if err != nil {
		return err
	}
	p, err := core.Build(norm)
	if err != nil {
		return err
	}
	s.policy = p
	s.cfg.Policy = norm
	return nil
}

// SetFaults swaps the fault-injection plan mid-run. Like SetPolicy it must
// be called between days (never while RunDay is in flight): the injector is
// rebuilt from the new configuration, so scheduled windows and activation
// draws restart from the plan's own rules at the current clock. A zero
// Seed copies Config.Seed, exactly as construction does. Disabling faults
// (an empty config) also clears any sensor corruption and utility gating
// the old plan left applied, so the fleet's observed state converges back
// to the physics.
//
// The fault plan participates in the checkpoint config hash, so swapping it
// changes the simulator's ConfigHash: checkpoints written after the swap
// resume only into simulators configured with the new plan (and older
// checkpoints only into the old one). Callers that checkpoint across
// mutations must keep the config that was live at each checkpoint —
// internal/serve snapshots its run spec alongside every envelope for
// exactly this reason.
func (s *Simulator) SetFaults(cfg faults.Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if !cfg.Enabled() {
		if s.inj != nil {
			for _, nd := range s.nodes {
				nd.SetSensorFault(faults.SensorFault{})
				nd.SetUtilityAvailable(true)
			}
		}
		s.inj = nil
		s.degraded = nil
		s.cfg.Faults = faults.Config{}
		return nil
	}
	fcfg := cfg
	if fcfg.Seed == 0 {
		fcfg.Seed = s.cfg.Seed
	}
	inj, err := faults.NewInjector(fcfg, s.cfg.Nodes)
	if err != nil {
		return err
	}
	s.inj = inj
	// Resync the edge-detection mirror to each node's current suspect
	// state so the swap itself never fabricates degraded-mode transition
	// events.
	if s.degraded == nil {
		s.degraded = make([]bool, s.cfg.Nodes)
	}
	for i, nd := range s.nodes {
		s.degraded[i] = nd.MetricsSuspect()
	}
	s.cfg.Faults = cfg
	return nil
}

// Clock returns the simulated time.
func (s *Simulator) Clock() time.Duration { return s.st.Clock }

// Day returns how many simulated days have completed (or started; RunDay
// increments it on entry). A resumed run uses it to skip the weather
// prefix already consumed before the checkpoint.
func (s *Simulator) Day() int { return s.st.Day }

// ctx refreshes and returns the reusable policy context.
func (s *Simulator) ctx() *core.Context {
	s.pctx.Clock = s.st.Clock
	return &s.pctx
}

// submitJobs enqueues the day's arrivals. Jobs that do not fit immediately
// stay queued and are retried every control period, so every policy
// attempts the same work — the comparison then measures battery management,
// not admission control.
func (s *Simulator) submitJobs() error {
	enqueue := func(p workload.Profile) error {
		s.st.VMCounter++
		v, err := vm.New(fmt.Sprintf("vm-%d", s.st.VMCounter), p)
		if err != nil {
			return err
		}
		s.pending = append(s.pending, v)
		s.telJobs.Inc()
		return nil
	}
	if !s.st.PlacedSvc {
		s.st.PlacedSvc = true
		if len(s.cfg.Services) > 0 {
			for _, p := range s.cfg.Services {
				if err := enqueue(p); err != nil {
					return err
				}
			}
		} else {
			svc, err := workload.ProfileFor(workload.WebServing)
			if err != nil {
				return err
			}
			for i := 0; i < s.cfg.ServiceVMs; i++ {
				if err := enqueue(svc); err != nil {
					return err
				}
			}
		}
	}
	for _, p := range s.gen.Batch(s.cfg.JobsPerDay) {
		if p.Service {
			continue // services were placed on day one
		}
		if err := enqueue(p); err != nil {
			return err
		}
	}
	return s.placePending()
}

// placePending drains the job queue as far as current capacity allows. It
// compacts the queue in place, keeping the order of the jobs left waiting;
// on an error the jobs not yet offered stay queued behind them.
func (s *Simulator) placePending() error {
	kept := 0
	for i, v := range s.pending {
		target, err := s.policy.PlaceVM(s.ctx(), v)
		if err == core.ErrNoCapacity {
			s.pending[kept] = v
			kept++
			s.telDeferred.Inc()
			continue
		}
		if err == nil {
			err = target.Server().Attach(v)
		}
		if err != nil {
			s.pending = append(s.pending[:kept], s.pending[i:]...)
			return err
		}
		s.telPlacements.Inc()
	}
	clear(s.pending[kept:])
	s.pending = s.pending[:kept]
	return nil
}

// ProvisionServices attaches n persistent service VMs round-robin across
// the fleet without consulting the policy — the constant-per-VM
// provisioning path for warehouse-scale fleets, where the policy's
// O(nodes) placement scan per VM turns day-one setup quadratic. It
// replaces the day-one ServiceVMs placement (both use the web-serving
// profile), so it must run before the first day, on a simulator whose
// Config requested no services of its own.
func (s *Simulator) ProvisionServices(n int) error {
	if s.st.PlacedSvc || s.st.Clock != 0 || s.st.Day != 0 {
		return fmt.Errorf("sim: ProvisionServices must run once, before the first day")
	}
	if n < 0 || n > len(s.nodes) {
		return fmt.Errorf("sim: can provision between 0 and %d services, got %d", len(s.nodes), n)
	}
	prof, err := workload.ProfileFor(workload.WebServing)
	if err != nil {
		return err
	}
	stride := 1
	if n > 0 {
		stride = len(s.nodes) / n
	}
	for i := 0; i < n; i++ {
		s.st.VMCounter++
		v, err := vm.New(fmt.Sprintf("vm-%d", s.st.VMCounter), prof)
		if err != nil {
			return err
		}
		if err := s.nodes[i*stride].Server().Attach(v); err != nil {
			return err
		}
		s.telPlacements.Inc()
	}
	s.st.PlacedSvc = true
	return nil
}

// reapCompleted removes finished VMs from their hosts. The bulk detach
// works in place on each server's VM list, so the control-period reap no
// longer copies every hosted VM slice just to scan it.
func (s *Simulator) reapCompleted() {
	for _, n := range s.nodes {
		n.Server().DetachCompleted()
	}
}

// RunDay simulates one full day of the given weather and returns its stats.
func (s *Simulator) RunDay(w solar.Weather) (DayStats, error) {
	day, err := solar.NewDay(w, s.cfg.Solar, s.wxRng.Rand)
	if err != nil {
		return DayStats{}, err
	}
	s.st.Day++
	// The morning forecast update: record today's conditions so the signal
	// plane's lookahead (ctx.Signals.Solar) is conditioned on them. The
	// forecaster owns its rng substream, so this read-and-redraw never
	// shifts the weather, job, or policy streams.
	s.forecast.ObserveDay(signal.WeatherIndex(w))
	ds := DayStats{Day: s.st.Day, Weather: w}

	if s.parallel {
		// One pool of long-lived shard workers per simulated day: the 288
		// ticks of a default day amortize the start/stop cost, and no
		// goroutines outlive the call that needed them.
		s.pool.Start()
		defer s.pool.Stop()
	}

	startThroughput := s.dayThr
	startDowntime := s.dayDown
	startSolar := s.daySolar
	lowSoC := s.dayLow
	clear(lowSoC)
	// Utility metering: the fleet's utility energy is sampled at the start
	// of the day, wherever the tariff price changes, and at the end, so each
	// segment between samples is priced at one rate. Fleets without utility
	// backup draw none, and skip the per-tick price check entirely.
	meter := s.cfg.Node.UtilityBackup
	tariff := s.pctx.Signals.Price
	var utilStart, utilMark, utilEnd units.WattHour
	var utilPrice float64
	for i, n := range s.nodes {
		st := n.Stats()
		startThroughput[i] = st.Throughput
		startDowntime[i] = st.Downtime
		startSolar[i] = st.SolarEnergy
		utilStart += st.UtilityEnergy
	}
	if meter {
		utilMark, utilPrice = utilStart, tariff.PriceAt(0)
	}

	if err := s.submitJobs(); err != nil {
		return DayStats{}, err
	}

	var sinceControl time.Duration
	for tod := time.Duration(0); tod < 24*time.Hour; tod += s.cfg.Tick {
		if meter {
			if p := tariff.PriceAt(tod); p != utilPrice {
				u := s.fleetUtilityEnergy()
				ds.UtilityCost += float64(u-utilMark) / 1000 * utilPrice
				utilMark, utilPrice = u, p
			}
		}
		inWindow := tod >= s.cfg.WindowStart && tod < s.cfg.WindowEnd
		power := day.PowerAt(tod)
		if s.inj != nil {
			// The injector ticks serially before the node fan-out: all its
			// RNG draws and node mutations happen here, in fixed order, so
			// fault runs stay bit-identical at any worker count. Every PV
			// dropout, scheduled or probabilistic, arrives as PVFactor.
			fs := s.inj.Tick(s.st.Clock, s.cfg.Tick)
			s.applyFaults(fs)
			power = units.Watt(float64(power) * fs.PVFactor)
		}
		if err := s.step(power, inWindow); err != nil {
			return DayStats{}, err
		}
		if s.inj != nil {
			s.applyDegradedTransitions()
		}
		s.st.Clock += s.cfg.Tick
		s.telTicks.Inc()
		if s.st.EOLAt == 0 {
			if i := s.firstEndOfLife(); i >= 0 {
				nd := s.nodes[i]
				s.st.EOLAt = s.st.Clock
				s.telEOL.Inc()
				s.tel.Emit(s.st.Clock, telemetry.EventBatteryEOL, nd.ID(),
					fmt.Sprintf("health %.3f below end-of-life threshold", nd.Stats().Health))
			}
		}

		if inWindow {
			// The shard workers already binned this tick's SoC samples
			// (and accumulated low-SoC dwell into dayLow).
			for si := range s.tallies {
				s.socBins.Add(&s.tallies[si].bins)
			}
			if s.tel != nil {
				// The telemetry histogram uses right-closed buckets where
				// SoCBins are left-closed, so it cannot be back-filled
				// from the shard bins; it keeps its own per-sample pass,
				// gated on a recorder actually being attached.
				for _, n := range s.nodes {
					s.telSoC.Observe(n.Battery().SoC())
				}
			}
			sinceControl += s.cfg.Tick
			if sinceControl >= s.cfg.ControlPeriod {
				sinceControl = 0
				s.reapCompleted()
				if err := s.placePending(); err != nil {
					return DayStats{}, err
				}
				controlStart := time.Time{}
				if s.telControl != nil {
					controlStart = time.Now()
				}
				if err := s.policy.Control(s.ctx()); err != nil {
					return DayStats{}, err
				}
				if s.telControl != nil {
					s.telControl.Observe(time.Since(controlStart).Seconds())
				}
				s.updateFleetGauges()
			}
		}
	}

	s.reapCompleted()
	s.telDays.Inc()

	for i, n := range s.nodes {
		st := n.Stats()
		ds.Throughput += st.Throughput - startThroughput[i]
		if d := st.Downtime - startDowntime[i]; d > ds.Downtime {
			ds.Downtime = d
		}
		if lowSoC[i] > ds.LowSoCTime {
			ds.LowSoCTime = lowSoC[i]
		}
		ds.SolarEnergy += st.SolarEnergy - startSolar[i]
		utilEnd += st.UtilityEnergy
	}
	if meter {
		ds.UtilityEnergy = utilEnd - utilStart
		ds.UtilityCost += float64(utilEnd-utilMark) / 1000 * utilPrice
	}
	s.history = append(s.history, ds)
	return ds, nil
}

// fleetUtilityEnergy sums the fleet's lifetime utility draw in node order,
// so the total is the same at any worker count or shard size.
func (s *Simulator) fleetUtilityEnergy() (total units.WattHour) {
	for _, n := range s.nodes {
		total += n.Stats().UtilityEnergy
	}
	return total
}

// History returns the per-day stats of every day this simulator has ever
// completed — including days inherited from a restored checkpoint, which
// the Result of a resumed Run does not cover.
func (s *Simulator) History() []DayStats { return slices.Clone(s.history) }

// step advances every node one tick, allocating the shared solar feed:
// loads first (proportional water-fill), then charging (lowest SoC first).
//
// All grant decisions — which read cross-node state (demands, SoC ordering,
// charge requests) — happen before any node advances, so the final physics
// stepping is embarrassingly parallel and fans out over the worker pool.
// The prologue writes only into the simulator's reusable scratch buffers:
// the SoC order is computed at most once per step and shared by every pass
// that needs it, and the steady-state path performs zero heap allocations.
func (s *Simulator) step(power units.Watt, inWindow bool) error {
	remaining := float64(power)

	if !inWindow {
		// Overnight: everything charges, lowest SoC first. A grant equals
		// what the charger can absorb this tick, so no redistribution pass
		// is needed after stepping.
		s.grantCharge(remaining)
		return s.stepNodes(true)
	}

	// Pass 1: load allocation proportional to demand. Demands are grossed
	// up to bus-side power so the solar-direct conversion loss does not
	// leave every node with a sliver of battery bridging.
	demands := s.demands
	var totalDemand float64
	eff := s.cfg.Node.Losses.SolarDirectEfficiency
	for i, nd := range s.nodes {
		demands[i] = float64(nd.Demand()) / eff
		totalDemand += demands[i]
	}
	loadGrant := s.loadGrant
	clear(loadGrant)
	if totalDemand > 0 {
		scale := 1.0
		if remaining < totalDemand {
			scale = remaining / totalDemand
		}
		for i := range loadGrant {
			loadGrant[i] = demands[i] * scale
		}
	}
	var granted float64
	for _, g := range loadGrant {
		granted += g
	}
	surplus := remaining - granted
	if surplus < 0 {
		surplus = 0
	}

	// Pass 2: charge allocation, lowest SoC first.
	s.grantCharge(surplus)
	return s.stepNodes(false)
}

// grantCharge splits power among the nodes' charge requests, lowest SoC
// first: each node in turn gets min(remaining, request) until nothing
// remains. The grants land in chargeGrant. The SoC order matters only when
// the power runs out before the last request, so the sort is skipped when
// there is no power at all (most of the night, or demand ate the whole
// feed) and when the power covers every request (see coversRequests).
func (s *Simulator) grantCharge(power float64) {
	grant := s.chargeGrant
	if !(power > 0) {
		clear(grant)
		return
	}
	for i, nd := range s.nodes {
		grant[i] = float64(nd.ChargeRequest())
	}
	if !coversRequests(grant, power) {
		grantBySoC(grant, s.bySoC(), power)
	}
}

// coversRequests reports whether granting min(remaining, request) node by
// node, in any order, starting from power, grants every request in full.
// The requests are non-negative. Their total, summed here in n−1
// additions, and the remainder of the sorted loop, after at most n
// subtractions, each take a relative rounding error of at most 2⁻⁵³ per
// operation; power > total·(1 + n·2⁻⁵¹) leaves room for both, so every
// node's remainder stays at or above its request. A NaN or Inf request
// fails the comparison.
func coversRequests(req []float64, power float64) bool {
	var total float64
	for _, r := range req {
		total += r
	}
	return power > total*(1+float64(len(req))*0x1p-51)
}

// grantBySoC walks order (ascending SoC) granting each node
// min(power, request) until the power is gone. grant holds each node's
// request on entry; a slot is read before it is overwritten, and the slots
// the walk never reaches get nothing.
func grantBySoC(grant []float64, order []int, power float64) {
	for k, idx := range order {
		if power <= 0 {
			for _, rest := range order[k:] {
				grant[rest] = 0
			}
			return
		}
		g := min(power, grant[idx])
		grant[idx] = g
		power -= g
	}
}

// stepNode advances one node with the grants the step prologue assigned,
// selecting the offline (overnight charging) or in-window path.
func (s *Simulator) stepNode(i int, offline bool) error {
	if offline {
		return s.nodes[i].StepOffline(s.cfg.Tick, units.Watt(s.chargeGrant[i]))
	}
	return s.nodes[i].Step(s.cfg.Tick, units.Watt(s.loadGrant[i]), units.Watt(s.chargeGrant[i]))
}

// shardTally is what one shard's pass reports to the engine: the SoC
// samples of its nodes in the operating window (Fig 19), the lowest index
// among its nodes below end-of-life health (-1 if none) and its first step
// error. The engine reads the tallies in shard order, which is ascending
// node order, so every value is the one a serial scan would find.
type shardTally struct {
	bins fleet.SoCBins
	eol  int
	err  error
}

// stepNodes advances every node shard by shard. Each shard's physics
// touches only state its nodes own (packs, servers, aging trackers, sensor
// state) and its own tally, plus atomic telemetry counters, so any
// assignment of shards to workers computes the same fleet state. Errors
// are reduced in shard order — within a shard the walk is ascending, so
// the first failing node by index wins — and so the reported error does
// not depend on goroutine scheduling.
func (s *Simulator) stepNodes(offline bool) error {
	s.stepOffline = offline
	if s.parallel {
		// Run distributes shards across the pool's workers (or executes
		// serially if RunDay has not started the pool — the results are
		// identical either way, that is the whole contract).
		s.pool.Run(len(s.tallies))
	} else {
		for si := range s.tallies {
			s.runShard(si)
		}
	}
	for si := range s.tallies {
		if err := s.tallies[si].err; err != nil {
			return err
		}
	}
	return nil
}

// runShard advances one shard's nodes in ascending index order and writes
// the shard's tally. It is the pool's work unit: no shared mutable state
// beyond the shard's own nodes and tally slot, and no allocations.
func (s *Simulator) runShard(si int) {
	sh := s.fleet.Shards()[si]
	offline := s.stepOffline
	t := shardTally{eol: -1}
	for i := sh.Lo; i < sh.Hi; i++ {
		if t.err = s.stepNode(i, offline); t.err != nil {
			break
		}
		nd := s.nodes[i]
		if t.eol < 0 && nd.Health() < battery.EndOfLifeHealth {
			t.eol = i
		}
		if !offline {
			soc := nd.SoC()
			t.bins.Observe(soc)
			if soc < aging.DeepDischargeSoC {
				// Fig 18's per-node low-SoC dwell; dayLow is indexed by
				// node, so shards write disjoint slots.
				s.dayLow[i] += s.cfg.Tick
			}
		}
	}
	s.tallies[si] = t
}

// firstEndOfLife returns the lowest index among the nodes below
// end-of-life health after this tick's step, or -1 if there is none.
func (s *Simulator) firstEndOfLife() int {
	for si := range s.tallies {
		if i := s.tallies[si].eol; i >= 0 {
			return i
		}
	}
	return -1
}

// applyFaults pushes one tick of injector output onto the fleet. It runs
// serially, before the node-physics fan-out, so every mutation and
// telemetry emission happens in deterministic node order.
func (s *Simulator) applyFaults(fs *faults.TickState) {
	for _, inj := range fs.Injected {
		s.telFaults.Inc()
		var nodeID string
		if inj.Node >= 0 && inj.Node < len(s.nodes) {
			nodeID = s.nodes[inj.Node].ID()
		}
		s.tel.Emit(s.st.Clock, telemetry.EventFaultInjected, nodeID, inj.String())
	}
	for i, nd := range s.nodes {
		nf := fs.Nodes[i]
		nd.SetSensorFault(nf.Sensor)
		nd.SetUtilityAvailable(!nf.UtilityDown)
		if nf.CapacityFade > 0 || nf.ResistanceGrowth > 0 {
			nd.InjectBatteryWear(nf.CapacityFade, nf.ResistanceGrowth, 0)
		}
		if nf.TargetHealth > 0 {
			// Premature EOL: one shock dropping the pack to the target
			// health, with resistance growth riding along at half the fade
			// (aged packs weaken on both axes, §II-B).
			if fade := nd.Stats().Health - nf.TargetHealth; fade > 0 {
				nd.InjectBatteryWear(fade, 0.5*fade, 0)
			}
		}
	}
}

// applyDegradedTransitions emits one telemetry event per suspect-state
// edge, so traces show when each node entered and left degraded metrics
// mode. It runs serially after the fan-out and scans the nodes in node
// order, comparing each node's suspect state with the degraded mirror, so
// the events come out in the same order at any shard size or worker count.
func (s *Simulator) applyDegradedTransitions() {
	for i, nd := range s.nodes {
		suspect := nd.MetricsSuspect()
		if suspect == s.degraded[i] {
			continue
		}
		s.degraded[i] = suspect
		s.telDegraded.Inc()
		if suspect {
			s.tel.Emit(s.st.Clock, telemetry.EventDegradedMode, nd.ID(),
				fmt.Sprintf("metrics quarantined (%d rejected, %d dropped samples)",
					nd.SensorRejected(), nd.SensorDropped()))
		} else {
			s.tel.Emit(s.st.Clock, telemetry.EventDegradedRecovered, nd.ID(),
				"sensor chain trusted again")
		}
	}
}

// updateFleetGauges refreshes the fleet-level telemetry gauges once per
// control period, and only when a recorder is attached: simulated clock,
// worst battery health (the EOL criterion of §II-B), average state of
// charge and, under fault injection, the quarantined-node count. The
// health, SoC and suspect figures come from one scan of the nodes in node
// order, so they are the same at any shard size or worker count.
func (s *Simulator) updateFleetGauges() {
	if s.tel == nil {
		return
	}
	s.telClock.Set(s.st.Clock.Seconds())
	minHealth, socSum, suspect := 1.0, 0.0, 0
	for _, nd := range s.nodes {
		minHealth = min(minHealth, nd.Health())
		socSum += nd.SoC()
		if nd.MetricsSuspect() {
			suspect++
		}
	}
	s.telMinHealth.Set(minHealth)
	s.telFleetAvgSoC.Set(socSum / float64(len(s.nodes)))
	if s.inj != nil {
		s.telSuspect.Set(float64(suspect))
	}
}

// controlBounds are the histogram buckets (seconds) for policy Control wall
// time — sub-microsecond through one second covers every fleet size the
// engine targets.
func controlBounds() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}
}

// bySoC returns node indices sorted by ascending state of charge (ties by
// ascending index). The SoC snapshot is read through the devirtualized
// Node.SoC in node order, and the permutation comes from the radix order
// in socorder.go: O(n) per call, zero allocations, and byte-identical to
// the stable comparison sort it replaced (the order is a strict total
// order, so any correct sort produces the same bytes). Ordering a pre-read
// snapshot is exact: nothing mutates pack state between the snapshot and
// the grant assignment that consumes it.
func (s *Simulator) bySoC() []int {
	for i, nd := range s.nodes {
		s.socSnap[i] = nd.SoC()
	}
	sortBySoC(s.socOrder, s.socTmp, s.socKey, s.socSnap)
	return s.socOrder
}

// Run simulates the given weather sequence and assembles the result.
// Result.Days is sized up front from the sequence length, so a long run
// appends into preallocated capacity instead of repeatedly regrowing.
func (s *Simulator) Run(weathers []solar.Weather) (*Result, error) {
	return s.RunWithCheckpoints(weathers, 0, nil)
}

// RunUntilEndOfLife draws weather from the location until the first battery
// reaches end-of-life or maxDays elapse. It reports the fleet lifetime.
func (s *Simulator) RunUntilEndOfLife(loc solar.Location, maxDays int) (*Result, error) {
	if err := loc.Validate(); err != nil {
		return nil, err
	}
	if maxDays <= 0 {
		return nil, fmt.Errorf("sim: maxDays must be positive, got %d", maxDays)
	}
	res := &Result{Policy: s.policy.Name()}
	for d := 0; d < maxDays; d++ {
		ds, err := s.RunDay(loc.DrawWeather(s.wxRng.Rand))
		if err != nil {
			return nil, err
		}
		res.Days = append(res.Days, ds)
		res.Throughput += ds.Throughput
		if s.st.EOLAt > 0 {
			break
		}
	}
	s.finish(res)
	return res, nil
}

// finish populates the result's fleet-wide fields.
func (s *Simulator) finish(res *Result) {
	res.Nodes = make([]NodeSummary, 0, len(s.nodes))
	for _, n := range s.nodes {
		st := n.Stats()
		res.Nodes = append(res.Nodes, NodeSummary{
			ID:         n.ID(),
			Metrics:    n.Metrics(),
			Health:     st.Health,
			SoC:        st.SoC,
			Throughput: st.Throughput,
			Downtime:   st.Downtime,
			Counters:   n.Battery().Counters(),
		})
	}
	res.SoCHistogram = s.socBins
	res.FleetLifetime = s.st.EOLAt
}
