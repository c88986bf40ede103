// Package core implements the paper's contribution: the BAAT battery
// anti-aging treatment framework (DSN'15 §IV) and the baseline power-
// management policies it is evaluated against (Table 4):
//
//	e-Buff  — aggressively use the battery as a green-energy buffer
//	BAAT-s  — aging-aware CPU frequency throttling only (slowdown)
//	BAAT-h  — aging-aware VM migration only (hiding)
//	BAAT    — coordinated hiding + slowdown (+ optional planned aging)
//
// A policy interacts with the fleet through two hooks the simulator calls:
// PlaceVM when a new workload arrives (aging-driven scheduling, Fig 8) and
// Control every control period (slowdown checks, Fig 9).
//
// Policies are open: each one registers itself under a canonical name via
// Register (registry.go), and every construction path in the system goes
// through Build(PolicySpec). A policy with controller state additionally
// implements StatefulPolicy so the simulator can carry that state through
// its checkpoint envelope.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/signal"
	"github.com/green-dc/baat/internal/telemetry"
	"github.com/green-dc/baat/internal/vm"
)

// Context is the fleet view a policy acts on. The simulator owns the nodes;
// policies mutate them synchronously inside the hooks.
type Context struct {
	// Nodes is the battery-node fleet.
	Nodes []*node.Node
	// Clock is the simulation time.
	Clock time.Duration
	// Rng drives any randomized decision (BAAT-h's non-holistic target
	// selection); it is seeded by the simulation for reproducibility.
	Rng *rand.Rand
	// Telemetry records policy decisions (migrations, DVFS caps, DoD
	// adjustments) as counters and traced events. Nil is valid and
	// records nothing.
	Telemetry *telemetry.Recorder
	// Signals is the forward-looking signal plane: a deterministic solar
	// forecast (24–72 h lookahead) and a time-of-use electricity tariff.
	// Either field may be nil (unit-test contexts); policies must degrade
	// to their signal-free behavior in that case.
	Signals signal.Signals
}

// Policy is a battery power-management scheme.
type Policy interface {
	// Name returns the Table 4 scheme name.
	Name() string
	// PlaceVM selects a node for a new workload. Implementations must
	// only return nodes that can host the VM.
	PlaceVM(ctx *Context, v *vm.VM) (*node.Node, error)
	// Control runs management actions (migration, DVFS, floor updates)
	// once per control period.
	Control(ctx *Context) error
}

// ErrNoCapacity is returned by PlaceVM when no node can host the VM.
var ErrNoCapacity = errors.New("core: no node has capacity for the VM")

// SlowdownConfig parameterizes the aging-slowdown algorithm (Fig 9).
type SlowdownConfig struct {
	// TriggerSoC is the state of charge below which DDT/DR checks run
	// (40 % in §IV-C; planned aging replaces it with 1 − DoD_goal).
	TriggerSoC float64
	// DDTThreshold is the deep-discharge time fraction above which the
	// policy intervenes.
	DDTThreshold float64
	// ReserveTime is T_threshold: the discharge the battery must be able
	// to sustain for emergency handling (2 minutes, §IV-C / §VI-E).
	ReserveTime time.Duration
	// Hysteresis is the SoC margin above TriggerSoC at which capped
	// frequencies are restored.
	Hysteresis float64

	// FloorSoC is the protective discharge floor the full BAAT scheme
	// enforces on every battery: rather than letting an at-risk battery
	// discharge to its hardware cutoff (the e-Buff failure mode), BAAT
	// checkpoints the server at this state of charge and waits for supply.
	// This is the slowdown-optimization threshold Fig 16 sweeps —
	// raising it extends battery life at some performance cost.
	FloorSoC float64
}

// DefaultSlowdownConfig returns the paper's parameters.
func DefaultSlowdownConfig() SlowdownConfig {
	return SlowdownConfig{
		TriggerSoC:   aging.DeepDischargeSoC,
		DDTThreshold: 0.15,
		ReserveTime:  2 * time.Minute,
		Hysteresis:   0.10,
		FloorSoC:     0.35,
	}
}

// Validate checks the slowdown parameters.
func (c SlowdownConfig) Validate() error {
	if !(c.TriggerSoC > 0 && c.TriggerSoC < 1) {
		return fmt.Errorf("core: trigger SoC must be in (0, 1), got %v", c.TriggerSoC)
	}
	if !(c.DDTThreshold >= 0 && c.DDTThreshold <= 1) {
		return fmt.Errorf("core: DDT threshold must be in [0, 1], got %v", c.DDTThreshold)
	}
	if c.ReserveTime <= 0 {
		return fmt.Errorf("core: reserve time must be positive, got %v", c.ReserveTime)
	}
	if !(c.Hysteresis >= 0 && c.Hysteresis < 1) {
		return fmt.Errorf("core: hysteresis must be in [0, 1), got %v", c.Hysteresis)
	}
	if !(c.FloorSoC >= 0 && c.FloorSoC < c.TriggerSoC) {
		return fmt.Errorf("core: floor SoC must be in [0, trigger %v), got %v", c.TriggerSoC, c.FloorSoC)
	}
	return nil
}

// PlannedAgingConfig enables DoD-goal regulation (§IV-D, Eq 7).
type PlannedAgingConfig struct {
	// Enabled turns planned aging on.
	Enabled bool
	// ServiceLife is the expected duration from battery installation to
	// datacenter end-of-life the batteries should be synchronized with.
	ServiceLife time.Duration
	// CyclesPerDay estimates how many charge/discharge cycles a day of
	// operation produces (1 for the prototype's daily solar cycle).
	CyclesPerDay float64
}

// Validate checks the planned-aging parameters.
func (c PlannedAgingConfig) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.ServiceLife <= 0 {
		return fmt.Errorf("core: planned-aging service life must be positive, got %v", c.ServiceLife)
	}
	if !(c.CyclesPerDay > 0 && c.CyclesPerDay <= math.MaxFloat64) {
		return fmt.Errorf("core: planned-aging cycles/day must be positive and finite, got %v", c.CyclesPerDay)
	}
	return nil
}

// Config assembles a policy.
type Config struct {
	Slowdown SlowdownConfig
	Planned  PlannedAgingConfig
	// MigrationTime is the VM pause incurred by one migration.
	MigrationTime time.Duration
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Slowdown:      DefaultSlowdownConfig(),
		MigrationTime: vm.DefaultMigrationTime,
	}
}

// Validate checks the policy configuration.
func (c Config) Validate() error {
	if err := c.Slowdown.Validate(); err != nil {
		return err
	}
	if err := c.Planned.Validate(); err != nil {
		return err
	}
	if c.MigrationTime <= 0 {
		return fmt.Errorf("core: migration time must be positive, got %v", c.MigrationTime)
	}
	return nil
}

// migrate wraps MigrateVM with policy telemetry: a successful move counts
// one migration and traces an EventMigration; a rollback counts a failure.
// The "cannot host" rejection returns an error only to the caller that
// mispicked — policies treat it as a skipped candidate.
func migrate(ctx *Context, src, dst *node.Node, vmID string, transfer time.Duration) error {
	if err := MigrateVM(src, dst, vmID, transfer); err != nil {
		ctx.Telemetry.Counter(telemetry.MetricMigrationFailures).Inc()
		return err
	}
	ctx.Telemetry.Counter(telemetry.MetricMigrations).Inc()
	if ctx.Telemetry != nil { // build the detail only when it is recorded
		ctx.Telemetry.Emit(ctx.Clock, telemetry.EventMigration, src.ID(), vmID+" -> "+dst.ID())
	}
	return nil
}

// capFrequency steps a server one DVFS notch down for battery protection,
// recording the cap when it actually moved the ladder.
func capFrequency(ctx *Context, n *node.Node) {
	if n.Server().StepDownFrequency() {
		ctx.Telemetry.Counter(telemetry.MetricDVFSCaps).Inc()
		if ctx.Telemetry != nil {
			ctx.Telemetry.Emit(ctx.Clock, telemetry.EventDVFSCap, n.ID(),
				fmt.Sprintf("freq index %d", n.Server().FrequencyIndex()))
		}
	}
}

// restoreFrequency steps a server one DVFS notch back up after recovery,
// recording the restore when it actually moved the ladder.
func restoreFrequency(ctx *Context, n *node.Node) {
	if n.Server().StepUpFrequency() {
		ctx.Telemetry.Counter(telemetry.MetricDVFSRestores).Inc()
		if ctx.Telemetry != nil {
			ctx.Telemetry.Emit(ctx.Clock, telemetry.EventDVFSRestore, n.ID(),
				fmt.Sprintf("freq index %d", n.Server().FrequencyIndex()))
		}
	}
}

// MigrateVM moves the named VM from src to dst, charging the transfer pause
// to the VM (§IV-C prefers migration; §VI-F charges its overhead).
func MigrateVM(src, dst *node.Node, vmID string, transfer time.Duration) error {
	if src == nil || dst == nil {
		return errors.New("core: migration needs both source and destination")
	}
	if src == dst {
		return fmt.Errorf("core: VM %s is already on %s", vmID, src.ID())
	}
	v, err := src.Server().Detach(vmID)
	if err != nil {
		return err
	}
	if !dst.Server().CanHost(v) {
		// Roll back: the VM stays where it was.
		if aerr := src.Server().Attach(v); aerr != nil {
			return fmt.Errorf("core: migration rollback failed: %w", aerr)
		}
		return fmt.Errorf("core: node %s cannot host VM %s", dst.ID(), vmID)
	}
	if err := v.BeginMigration(transfer); err != nil {
		if aerr := src.Server().Attach(v); aerr != nil {
			return fmt.Errorf("core: migration rollback failed: %w", aerr)
		}
		return err
	}
	return dst.Server().Attach(v)
}

// leastReserved returns the node with the most spare peak-utilization
// headroom that can host v, or nil.
func leastReserved(nodes []*node.Node, v *vm.VM) *node.Node {
	var best *node.Node
	bestLoad := 0.0
	for _, n := range nodes {
		if !n.Server().CanHost(v) {
			continue
		}
		load := n.Server().ReservedUtilization()
		if best == nil || load < bestLoad {
			best, bestLoad = n, load
		}
	}
	return best
}

// agingTie is the Eq 6 score band inside which two candidates count as
// tied; the one with the higher present state of charge wins.
const agingTie = 1e-3

// agingPick finds "the aging slowest battery node" of §IV-B — the hostable
// candidate with the lowest Eq 6 score — in one sweep. Candidates whose
// battery is below minSoC count only if nothing better exists (moving load
// onto an at-risk battery would just mint a new victim), and candidates
// whose aging metrics are quarantined rank below everything else: a
// suspect score may be garbage, so the scheduler treats the node as
// worst-aged and places there only when no trusted node has capacity.
// The pick therefore keeps the best candidate of three fallback tiers —
// trusted and at or above minSoC, trusted, any — and answers with the
// first tier that has one.
type agingPick struct {
	minSoC float64
	tiers  [3]struct {
		idx        int // -1 while the tier is empty
		score, soc float64
	}
}

func newAgingPick(minSoC float64) agingPick {
	p := agingPick{minSoC: minSoC}
	for t := range p.tiers {
		p.tiers[t].idx = -1
	}
	return p
}

// offer submits hostable candidate i. Candidates must be offered in fleet
// order: the tie rule favors the earlier of two equal candidates.
func (p *agingPick) offer(i int, suspect bool, soc, score float64) {
	first := 2
	if !suspect {
		first = 1
		if !(soc < p.minSoC) { // only a SoC known to be low demotes
			first = 0
		}
	}
	for t := first; t < len(p.tiers); t++ {
		b := &p.tiers[t]
		if b.idx < 0 || score < b.score-agingTie || (score < b.score+agingTie && soc > b.soc) {
			b.idx, b.score, b.soc = i, score, soc
		}
	}
}

// best returns the index of the picked candidate, or -1 when none was
// offered.
func (p *agingPick) best() int {
	for _, b := range p.tiers {
		if b.idx >= 0 {
			return b.idx
		}
	}
	return -1
}

// LifetimePrediction is one node's projected battery end-of-life.
type LifetimePrediction struct {
	// NodeID identifies the battery node.
	NodeID string
	// Health is the present remaining-capacity fraction.
	Health float64
	// TimeToEndOfLife extrapolates when health crosses the 80 % line at
	// the damage rate observed so far; 0 when already there.
	TimeToEndOfLife time.Duration
}

// PredictLifetimes projects battery end-of-life for every node from its
// observed damage rate (§I: BAAT "proactively predicts battery lifetime and
// trades off unnecessary battery service life for better datacenter
// productivity"). The planner consumes these to choose DoD goals; operators
// consume them for replacement scheduling.
func PredictLifetimes(ctx *Context) []LifetimePrediction {
	out := make([]LifetimePrediction, 0, len(ctx.Nodes))
	for _, n := range ctx.Nodes {
		var remaining time.Duration
		if n.Clock() == 0 {
			// No operating history yet: nothing to extrapolate from, so
			// the projection is unbounded rather than zero.
			remaining = time.Duration(math.MaxInt64)
		} else {
			remaining = n.AgingModel().EstimateLifetime(n.Clock()) - n.Clock()
			if remaining < 0 {
				remaining = 0
			}
		}
		out = append(out, LifetimePrediction{
			NodeID:          n.ID(),
			Health:          n.Battery().Health(),
			TimeToEndOfLife: remaining,
		})
	}
	return out
}

// reserveCurrentLimit returns P_threshold as a current: the draw the pack
// could sustain for the reserve time from its energy above the floor.
func reserveCurrentLimit(n *node.Node, reserve time.Duration) float64 {
	soc := n.Battery().SoC()
	floor := n.SoCFloor()
	if soc <= floor {
		return 0
	}
	usable := (soc - floor) * float64(n.Battery().EffectiveCapacity()) // Ah
	return usable / reserve.Hours()
}
