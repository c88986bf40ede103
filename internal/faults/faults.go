// Package faults is the deterministic fault-injection layer of the
// reproduction. The paper's six-month prototype (DSN'15 §VI) did not run on
// a clean testbed: sensor DAQs glitched, PV generation dropped out, and
// batteries hit end-of-life mid-study. This package replays that messiness
// on demand — and, critically, replayably: an Injector owns its own seeded
// rand stream and resolves every fault decision serially, in rule-then-node
// order, at the top of each simulation tick, so a fixed seed plus a fixed
// schedule produces bit-identical runs at any worker count.
//
// Fault kinds compose across the stack:
//
//   - sensor faults corrupt the controller's *view* of a battery (the
//     samples feeding aging.Tracker) without touching the physics —
//     stuck, NaN, noisy, or dropped readings;
//   - battery faults are physical: sudden capacity loss, elevated internal
//     resistance, or premature end-of-life, injected into the aging model
//     as irreversible damage;
//   - power faults starve the supply side: PV dropout/derating windows and
//     utility brownouts that disable the grid-backup path.
//
// Rules are either scheduled (Day/At/Duration pin an absolute window on the
// simulation clock) or probabilistic (a per-tick trigger probability with a
// per-activation duration). See docs/FAULTS.md for the schedule format and
// the determinism guarantee.
package faults

import (
	"fmt"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind string

// The fault kinds, grouped by the layer they attack.
const (
	// SensorStuck freezes the node's reported battery sample: the DAQ
	// repeats the last reading it delivered (current, SoC, temperature).
	SensorStuck Kind = "sensor_stuck"
	// SensorNaN corrupts the reported current to NaN — the classic failed
	// shunt/ADC symptom the Tracker's hardening rejects.
	SensorNaN Kind = "sensor_nan"
	// SensorNoise multiplies the reported current and perturbs SoC and
	// temperature with seeded Gaussian noise of relative sigma Magnitude.
	SensorNoise Kind = "sensor_noise"
	// SensorDrop loses the reading entirely: the tracker sees nothing and
	// the metrics go stale.
	SensorDrop Kind = "sensor_drop"

	// BatteryCapacityLoss permanently removes a Magnitude fraction of the
	// battery's nominal capacity (sudden cell failure).
	BatteryCapacityLoss Kind = "battery_capacity_loss"
	// BatteryResistanceGrowth permanently grows internal resistance by a
	// Magnitude fraction (accelerated grid corrosion).
	BatteryResistanceGrowth Kind = "battery_resistance_growth"
	// BatteryPrematureEOL fades capacity until health reaches Magnitude
	// (default 0.75, just under the 0.8 end-of-life line of §II-B).
	BatteryPrematureEOL Kind = "battery_premature_eol"

	// PVDropout derates the whole solar feed to (1 − Magnitude) of its
	// clean value while active (Magnitude 1 = full outage, e.g. an
	// inverter trip).
	PVDropout Kind = "pv_dropout"
	// UtilityBrownout disables the utility-backup path on the targeted
	// nodes while active (only observable with node.Config.UtilityBackup).
	UtilityBrownout Kind = "utility_brownout"
)

// kindInfo classifies kinds for validation and dispatch.
var kindInfo = map[Kind]struct {
	oneShot   bool // fires once per activation instead of holding a window
	fleetWide bool // ignores Rule.Node
	defMag    float64
}{
	SensorStuck:             {defMag: 0},
	SensorNaN:               {defMag: 0},
	SensorNoise:             {defMag: 0.2},
	SensorDrop:              {defMag: 0},
	BatteryCapacityLoss:     {oneShot: true, defMag: 0.10},
	BatteryResistanceGrowth: {oneShot: true, defMag: 0.50},
	BatteryPrematureEOL:     {oneShot: true, defMag: 0.75},
	PVDropout:               {fleetWide: true, defMag: 1.0},
	UtilityBrownout:         {defMag: 0},
}

// Kinds lists every fault kind in a stable order.
func Kinds() []Kind {
	return []Kind{
		SensorStuck, SensorNaN, SensorNoise, SensorDrop,
		BatteryCapacityLoss, BatteryResistanceGrowth, BatteryPrematureEOL,
		PVDropout, UtilityBrownout,
	}
}

// Rule describes one fault source. A rule is either scheduled — Day ≥ 1
// pins the activation to an absolute window starting on that simulated day
// at time-of-day At — or probabilistic — Probability > 0 arms an
// independent per-tick trigger. Exactly one of the two modes must be set.
type Rule struct {
	// Kind selects the fault class.
	Kind Kind

	// Node is the target node index; -1 targets every node (each node
	// gets its own activation state, and probabilistic rules draw one
	// trigger per node per tick). Fleet-wide kinds (PVDropout) ignore it.
	Node int

	// Day is the 1-based simulated day a scheduled fault starts; 0 selects
	// probabilistic mode.
	Day int

	// At is the time of day (offset from midnight) a scheduled fault
	// starts.
	At time.Duration

	// Duration is how long one activation holds. Scheduled windows may
	// span day boundaries. One-shot kinds (battery faults) ignore it.
	// Probabilistic activations with zero duration hold for a single tick.
	Duration time.Duration

	// Probability is the per-tick trigger chance of a probabilistic rule,
	// in (0, 1]. While an activation is already holding, no new trigger is
	// drawn.
	Probability float64

	// Magnitude is kind-specific: noise sigma (SensorNoise), capacity
	// fraction lost (BatteryCapacityLoss), resistance growth fraction
	// (BatteryResistanceGrowth), target health (BatteryPrematureEOL), or
	// PV derating depth (PVDropout). Zero selects the kind's default.
	Magnitude float64
}

// Validate checks one rule.
func (r Rule) Validate() error {
	info, ok := kindInfo[r.Kind]
	if !ok {
		return fmt.Errorf("faults: unknown kind %q", r.Kind)
	}
	scheduled := r.Day > 0
	probabilistic := r.Probability > 0
	if r.Day < 0 {
		return fmt.Errorf("faults: %s: day must be >= 0, got %d", r.Kind, r.Day)
	}
	if scheduled == probabilistic {
		return fmt.Errorf("faults: %s: exactly one of Day >= 1 (scheduled) or Probability > 0 (probabilistic) must be set", r.Kind)
	}
	if r.Probability < 0 || r.Probability > 1 {
		return fmt.Errorf("faults: %s: probability must be in [0, 1], got %v", r.Kind, r.Probability)
	}
	if r.At < 0 || r.At >= 24*time.Hour {
		return fmt.Errorf("faults: %s: start time of day must be in [0, 24h), got %v", r.Kind, r.At)
	}
	if r.Duration < 0 {
		return fmt.Errorf("faults: %s: duration must be non-negative, got %v", r.Kind, r.Duration)
	}
	if scheduled && !info.oneShot && r.Duration == 0 {
		return fmt.Errorf("faults: %s: scheduled window needs a positive duration", r.Kind)
	}
	if r.Magnitude < 0 {
		return fmt.Errorf("faults: %s: magnitude must be non-negative, got %v", r.Kind, r.Magnitude)
	}
	switch r.Kind {
	case SensorNoise, BatteryCapacityLoss, BatteryPrematureEOL, PVDropout:
		if r.Magnitude > 1 {
			return fmt.Errorf("faults: %s: magnitude must be in [0, 1], got %v", r.Kind, r.Magnitude)
		}
	}
	if !info.fleetWide && r.Node < -1 {
		return fmt.Errorf("faults: %s: node must be -1 (all) or a node index, got %d", r.Kind, r.Node)
	}
	return nil
}

// magnitude resolves the rule's effective magnitude.
func (r Rule) magnitude() float64 {
	if r.Magnitude > 0 {
		return r.Magnitude
	}
	return kindInfo[r.Kind].defMag
}

// Config is a complete fault plan: a seed for the injector's private rand
// stream plus the rule list. The zero value (no rules) injects nothing.
type Config struct {
	// Seed feeds the injector's own random substream (the rng.Faults
	// stream of this seed), kept separate from every simulation stream so
	// enabling faults never perturbs weather, job mix, or policy
	// tie-breaks. Zero lets the simulator copy its own seed in; the named
	// substream keeps the sequences independent even then.
	Seed int64
	// Rules are the fault sources, evaluated in order every tick.
	Rules []Rule
}

// Validate checks every rule.
func (c Config) Validate() error {
	for i, r := range c.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("faults: rule %d: %w", i, err)
		}
	}
	return nil
}

// Enabled reports whether the plan injects anything.
func (c *Config) Enabled() bool { return c != nil && len(c.Rules) > 0 }

// SensorMode labels how a node's reported battery sample is corrupted this
// tick.
type SensorMode int

// Sensor corruption modes, in escalating order of information loss.
const (
	SensorOK SensorMode = iota
	ModeStuck
	ModeNaN
	ModeNoise
	ModeDrop
)

// String returns the mode name.
func (m SensorMode) String() string {
	switch m {
	case SensorOK:
		return "ok"
	case ModeStuck:
		return "stuck"
	case ModeNaN:
		return "nan"
	case ModeNoise:
		return "noise"
	case ModeDrop:
		return "drop"
	default:
		return fmt.Sprintf("SensorMode(%d)", int(m))
	}
}

// SensorFault is the per-tick sensor corruption applied to one node. The
// zero value means a healthy sensor chain. Noise values are drawn by the
// injector (serially, before the parallel node fan-out) so applying the
// fault inside a worker goroutine stays deterministic. A node checkpoints
// the fault in effect in this form.
type SensorFault struct {
	// Mode selects the corruption.
	Mode SensorMode `json:"mode"`
	// Sigma is the relative noise amplitude (ModeNoise).
	Sigma float64 `json:"sigma"`
	// Noise holds the pre-drawn standard-normal values perturbing
	// (current, SoC, temperature) under ModeNoise.
	Noise [3]float64 `json:"noise"`
}

// NodeFault is the resolved fault state of one node for one tick.
type NodeFault struct {
	// Sensor is the sensor-chain corruption in effect.
	Sensor SensorFault
	// CapacityFade is a one-shot capacity fraction to retire this tick.
	CapacityFade float64
	// ResistanceGrowth is a one-shot resistance growth to add this tick.
	ResistanceGrowth float64
	// TargetHealth, when positive, demands the battery be faded to this
	// health this tick (BatteryPrematureEOL).
	TargetHealth float64
	// UtilityDown disables the node's grid-backup path this tick.
	UtilityDown bool
}

// Injected records one fault activation for telemetry.
type Injected struct {
	// Kind is the activated fault class.
	Kind Kind
	// Node is the affected node index (-1 for fleet-wide faults).
	Node int
	// At is the simulation clock at activation.
	At time.Duration
	// Until is when the activation window closes (At for one-shots).
	Until time.Duration
	// Magnitude is the resolved magnitude.
	Magnitude float64
}

// String renders the activation for event logs.
func (i Injected) String() string {
	target := "fleet"
	if i.Node >= 0 {
		target = fmt.Sprintf("node %d", i.Node)
	}
	if i.Until > i.At {
		return fmt.Sprintf("%s on %s (magnitude %.3g, until %v)", i.Kind, target, i.Magnitude, i.Until)
	}
	return fmt.Sprintf("%s on %s (magnitude %.3g)", i.Kind, target, i.Magnitude)
}

// TickState is the fully resolved fault state for one tick: what the
// simulator applies before fanning node physics out to workers. The slices
// are owned by the injector and valid until the next Tick call.
type TickState struct {
	// PVFactor scales the solar feed (1 = clean, 0 = total dropout).
	PVFactor float64
	// Nodes holds per-node fault state, indexed like the fleet.
	Nodes []NodeFault
	// Injected lists fault activations that began this tick, for the
	// telemetry tracer.
	Injected []Injected
}
