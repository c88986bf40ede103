package faults

import (
	"fmt"
	"time"

	"github.com/green-dc/baat/internal/rng"
)

// Injector resolves a fault plan tick by tick. It owns a private random
// substream (never shared with simulation randomness) and all of its state
// transitions happen inside Tick, which the simulator calls serially before
// fanning node physics out to workers — so every probabilistic trigger and
// noise draw lands in a fixed rule-then-node order and the resolved
// TickState is identical at any worker count.
//
// An Injector is not safe for concurrent use; the engine owns it.
type Injector struct {
	rng   *rng.Stream
	rules []ruleState
	state TickState // reused across ticks
}

// ruleState is one rule plus its per-target activation bookkeeping.
type ruleState struct {
	rule Rule
	mag  float64
	// oneShot is the kind's oneShot flag, resolved once at construction.
	oneShot bool
	// targets expand Rule.Node: one entry per attacked node, or a single
	// Node == -1 entry for fleet-wide kinds.
	targets []TargetState
}

// NewInjector compiles a fault plan for a fleet of the given size. The
// caller resolves Config.Seed before construction (the simulator copies
// its own seed in when it is zero); the injector's stream is the named
// rng.Faults substream of that seed, so it never collides with any
// simulation stream.
func NewInjector(cfg Config, nodes int) (*Injector, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("faults: injector needs at least one node, got %d", nodes)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{rng: rng.New(cfg.Seed, rng.Faults)}
	for _, r := range cfg.Rules {
		info := kindInfo[r.Kind]
		rs := ruleState{rule: r, mag: r.magnitude(), oneShot: info.oneShot}
		switch {
		case info.fleetWide:
			rs.targets = []TargetState{{Node: -1}}
		case r.Node >= 0:
			if r.Node >= nodes {
				return nil, fmt.Errorf("faults: %s targets node %d but the fleet has %d nodes", r.Kind, r.Node, nodes)
			}
			rs.targets = []TargetState{{Node: r.Node}}
		default: // Node == -1: every node, each with independent state
			rs.targets = make([]TargetState, nodes)
			for i := range rs.targets {
				rs.targets[i].Node = i
			}
		}
		inj.rules = append(inj.rules, rs)
	}
	inj.state.Nodes = make([]NodeFault, nodes)
	return inj, nil
}

// sensorSeverity ranks corruption modes so overlapping sensor rules compose
// by worst-wins (a dropped reading beats a noisy one).
func sensorSeverity(m SensorMode) int {
	switch m {
	case ModeDrop:
		return 4
	case ModeNaN:
		return 3
	case ModeStuck:
		return 2
	case ModeNoise:
		return 1
	default:
		return 0
	}
}

// sensorMode maps sensor kinds to their corruption mode.
func sensorMode(k Kind) SensorMode {
	switch k {
	case SensorStuck:
		return ModeStuck
	case SensorNaN:
		return ModeNaN
	case SensorNoise:
		return ModeNoise
	case SensorDrop:
		return ModeDrop
	default:
		return SensorOK
	}
}

// start returns a scheduled rule's absolute activation clock.
func (r Rule) start() time.Duration {
	return time.Duration(r.Day-1)*24*time.Hour + r.At
}

// Tick resolves the fault state for the tick covering [clock, clock+tick).
// It must be called once per tick, with a monotonically advancing clock;
// the returned state (and its slices) is reused by the next call.
func (inj *Injector) Tick(clock, tick time.Duration) *TickState {
	st := &inj.state
	st.PVFactor = 1
	st.Injected = st.Injected[:0]
	for i := range st.Nodes {
		st.Nodes[i] = NodeFault{}
	}

	for ri := range inj.rules {
		rs := &inj.rules[ri]
		r := rs.rule
		oneShot := rs.oneShot
		for ti := range rs.targets {
			t := &rs.targets[ti]

			if r.Day > 0 { // scheduled
				start := r.start()
				if oneShot {
					if !t.Fired && clock >= start {
						t.Fired = true
						inj.applyOneShot(r.Kind, rs.mag, t.Node)
						st.Injected = append(st.Injected, Injected{
							Kind: r.Kind, Node: t.Node, At: clock, Until: clock, Magnitude: rs.mag,
						})
					}
					continue
				}
				end := start + r.Duration
				active := clock >= start && clock < end
				if active && !t.Open {
					t.Open = true
					st.Injected = append(st.Injected, Injected{
						Kind: r.Kind, Node: t.Node, At: clock, Until: end, Magnitude: rs.mag,
					})
				} else if !active {
					t.Open = false
				}
				if active {
					inj.applyWindow(r.Kind, rs.mag, t.Node)
				}
				continue
			}

			// Probabilistic: while a window holds, no new trigger is drawn.
			if clock < t.Until {
				if !oneShot {
					inj.applyWindow(r.Kind, rs.mag, t.Node)
				}
				continue
			}
			if inj.rng.Float64() >= r.Probability {
				continue
			}
			hold := r.Duration
			if hold < tick {
				hold = tick // a zero-duration activation covers this tick
			}
			t.Until = clock + hold
			st.Injected = append(st.Injected, Injected{
				Kind: r.Kind, Node: t.Node, At: clock, Until: t.Until, Magnitude: rs.mag,
			})
			if oneShot {
				inj.applyOneShot(r.Kind, rs.mag, t.Node)
			} else {
				inj.applyWindow(r.Kind, rs.mag, t.Node)
			}
		}
	}
	return st
}

// applyWindow folds a holding window fault into the tick state.
func (inj *Injector) applyWindow(k Kind, mag float64, node int) {
	st := &inj.state
	if k == PVDropout {
		st.PVFactor *= 1 - mag
		return
	}
	apply := func(nf *NodeFault) {
		switch k {
		case SensorStuck, SensorNaN, SensorNoise, SensorDrop:
			mode := sensorMode(k)
			f := SensorFault{Mode: mode}
			if mode == ModeNoise {
				// Draws happen here, in rule-then-node iteration order, even
				// if a severer rule later overrides the mode — the draw count
				// must depend only on the schedule, never on composition.
				f.Sigma = mag
				f.Noise = [3]float64{inj.rng.NormFloat64(), inj.rng.NormFloat64(), inj.rng.NormFloat64()}
			}
			if sensorSeverity(mode) > sensorSeverity(nf.Sensor.Mode) {
				nf.Sensor = f
			}
		case UtilityBrownout:
			nf.UtilityDown = true
		}
	}
	if node >= 0 {
		apply(&st.Nodes[node])
		return
	}
	for i := range st.Nodes {
		apply(&st.Nodes[i])
	}
}

// applyOneShot folds a fire-once battery fault into the tick state.
func (inj *Injector) applyOneShot(k Kind, mag float64, node int) {
	st := &inj.state
	apply := func(nf *NodeFault) {
		switch k {
		case BatteryCapacityLoss:
			nf.CapacityFade += mag
		case BatteryResistanceGrowth:
			nf.ResistanceGrowth += mag
		case BatteryPrematureEOL:
			nf.TargetHealth = mag
		}
	}
	if node >= 0 {
		apply(&st.Nodes[node])
		return
	}
	for i := range st.Nodes {
		apply(&st.Nodes[i])
	}
}
