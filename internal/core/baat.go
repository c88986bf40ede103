package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/telemetry"
	"github.com/green-dc/baat/internal/units"
	"github.com/green-dc/baat/internal/vm"
)

// baat is the full BAAT framework (Table 4): it coordinates aging hiding
// (weighted-aging-driven placement and rebalancing, Fig 8), aging slowdown
// (migration-first, DVFS-second response to DDT/DR violations, Fig 9), and
// optional planned aging (DoD-goal regulation, Eq 7).
type baat struct {
	cfg Config
	// lastDoDGoal is the previously recorded fleet-average DoD goal, used
	// to emit an EventDoDTarget only when planned aging actually moves the
	// target (a per-control-period event would drown the trace ring).
	lastDoDGoal float64
	// view is Control's candidate snapshot, kept for its columns' storage.
	view candidateView
}

// balanceImbalanceFactor is how far above the fleet-average weighted aging
// a node must score before the hiding arm rebalances load away from it.
const balanceImbalanceFactor = 1.25

// balanceMinScore avoids churning migrations between near-pristine nodes.
const balanceMinScore = 0.05

func init() {
	Register("baat", Descriptor{
		Display: "BAAT",
		Rank:    4,
		Doc:     "coordinated aging hiding + slowdown, with optional planned aging (Eq 7)",
		Options: mergeOptionDocs(slowdownOptionDocs, migrationOptionDocs, plannedOptionDocs),
		Build: func(spec PolicySpec) (Policy, error) {
			cfg, err := configFromOptions(spec.Options)
			if err != nil {
				return nil, err
			}
			return &baat{cfg: cfg}, nil
		},
	})
}

// Name returns the Table 4 scheme name.
func (*baat) Name() string { return "BAAT" }

// baatState is the serialized controller state: the DoD-goal hysteresis of
// the planned-aging arm.
type baatState struct {
	LastDoDGoal float64 `json:"last_dod_goal"`
}

// Snapshot captures the controller state for the checkpoint envelope.
func (p *baat) Snapshot() ([]byte, error) {
	return json.Marshal(baatState{LastDoDGoal: p.lastDoDGoal})
}

// Restore rewinds the controller state from a snapshot, rejecting
// malformed or out-of-range payloads before mutating anything.
func (p *baat) Restore(data []byte) error {
	var st baatState
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		return fmt.Errorf("core: restore baat state: %w", err)
	}
	if st.LastDoDGoal < 0 || st.LastDoDGoal > 1 || math.IsNaN(st.LastDoDGoal) {
		return fmt.Errorf("core: restore baat state: DoD goal %v out of [0, 1]", st.LastDoDGoal)
	}
	p.lastDoDGoal = st.LastDoDGoal
	return nil
}

// PlaceVM implements the aging-driven scheduler of Fig 8: classify the
// workload per Table 3, evaluate Eq 6 on every candidate, and place on the
// slowest-aging node.
func (*baat) PlaceVM(ctx *Context, v *vm.VM) (*node.Node, error) {
	sens := aging.DemandSensitivity(v.Profile().DemandClass())
	pick := newAgingPick(aging.DeepDischargeSoC)
	for i, n := range ctx.Nodes {
		if n.Server().CanHost(v) {
			pick.offer(i, n.MetricsSuspect(), n.SoC(), aging.WeightedAging(n.Metrics(), sens))
		}
	}
	if i := pick.best(); i >= 0 {
		return ctx.Nodes[i], nil
	}
	return nil, ErrNoCapacity
}

// Control coordinates planned aging, slowdown, hiding, and recovery.
func (p *baat) Control(ctx *Context) error {
	trigger := p.cfg.Slowdown.TriggerSoC
	if p.cfg.Planned.Enabled {
		// Planned aging sets both trigger and floors from Eq 7.
		trigger = p.plannedTrigger(ctx)
	} else {
		// BAAT's operating discipline: no battery discharges below the
		// protective floor — the server checkpoints instead of dragging
		// the pack into the steep region of the cycle-life curve.
		for _, n := range ctx.Nodes {
			if n.SoCFloor() != p.cfg.Slowdown.FloorSoC {
				_ = n.SetSoCFloor(p.cfg.Slowdown.FloorSoC)
			}
		}
	}
	slowCfg := p.cfg.Slowdown
	slowCfg.TriggerSoC = trigger
	cv := &p.view
	cv.load(ctx.Nodes)

	// Slowdown arm (Fig 9): migration first, DVFS as the fallback when
	// resources elsewhere are constrained.
	for i, n := range ctx.Nodes {
		if !slowdownNeeded(n, slowCfg) {
			if recovered(n, slowCfg) {
				restoreFrequency(ctx, n)
			}
			continue
		}
		if v := migratableVM(n); v != nil {
			if dst := cv.minWeightedAging(v, i, slowCfg.TriggerSoC+slowCfg.Hysteresis); dst >= 0 {
				if err := cv.migrate(ctx, i, dst, v, p.cfg.MigrationTime); err != nil {
					return err
				}
				continue
			}
		}
		capFrequency(ctx, n)
	}

	// Hiding arm (Fig 8): rebalance when a node's weighted aging runs far
	// ahead of the fleet. Scores use the all-High sensitivity so balance
	// reflects the battery state rather than any single workload. Nodes
	// with quarantined metrics contribute garbage scores, so they are
	// excluded from the fleet average and treated as unconditional
	// rebalance sources — the degraded-mode posture moves load off them
	// without pretending to know how aged they are.
	if len(ctx.Nodes) >= 2 {
		var sum float64
		var trusted int
		scores := cv.classScores(aging.DemandClass{LargePower: true, MoreEnergy: true})
		suspect := cv.suspect
		for i := range ctx.Nodes {
			if suspect[i] {
				continue
			}
			sum += scores[i]
			trusted++
		}
		var avg float64
		if trusted > 0 {
			avg = sum / float64(trusted)
		}
		for i, src := range ctx.Nodes {
			if !suspect[i] && (scores[i] < balanceMinScore || scores[i] <= avg*balanceImbalanceFactor) {
				continue
			}
			v := migratableVM(src)
			if v == nil {
				continue
			}
			dst := cv.minWeightedAging(v, i, p.cfg.Slowdown.TriggerSoC)
			if dst < 0 || suspect[dst] {
				continue
			}
			// Only move if the destination is actually meaningfully
			// healthier; otherwise the migration cost buys nothing. A
			// suspect source has no comparable score — moving off it is
			// the point.
			if !suspect[i] && scores[dst] >= scores[i] {
				continue
			}
			if err := cv.migrate(ctx, i, dst, v, p.cfg.MigrationTime); err != nil {
				return err
			}
		}
	}
	return nil
}

// plannedTrigger computes the slowdown trigger under planned aging: Eq 7's
// DoD goal from the fleet's remaining throughput budget and the cycles left
// until datacenter end-of-life, with the trigger set to 1 − DoD_goal
// (§IV-D). The fleet floors follow so the charge controller enforces the
// plan even between control periods.
func (p *baat) plannedTrigger(ctx *Context) float64 {
	remaining := p.cfg.Planned.ServiceLife - ctx.Clock
	if remaining <= 0 {
		remaining = 24 * time.Hour // end of plan: keep one day's headroom
	}
	cyclePlan := remaining.Hours() / 24 * p.cfg.Planned.CyclesPerDay
	trigger := p.cfg.Slowdown.TriggerSoC
	var sum float64
	var count int
	for _, n := range ctx.Nodes {
		spec := n.Battery().Spec()
		used := usedThroughput(n)
		goal, err := aging.DoDGoal(spec.LifetimeThroughput, used, cyclePlan, spec.NominalCapacity)
		if err != nil {
			continue
		}
		sum += goal
		count++
		// The node-level floor tracks the plan so discharge stops at the
		// planned depth even between control invocations.
		_ = n.SetSoCFloor(clampFloor(1 - goal))
	}
	if count > 0 {
		goal := sum / float64(count)
		trigger = clampTrigger(1 - goal)
		ctx.Telemetry.Counter(telemetry.MetricDoDAdjusts).Inc()
		ctx.Telemetry.Gauge(telemetry.MetricDoDGoal).Set(goal)
		// Trace only meaningful target moves (> 1 % DoD) so the ring keeps
		// the shape of the Eq 7 trajectory rather than its sampling rate.
		if diff := goal - p.lastDoDGoal; diff > 0.01 || diff < -0.01 {
			p.lastDoDGoal = goal
			if ctx.Telemetry != nil {
				ctx.Telemetry.Emit(ctx.Clock, telemetry.EventDoDTarget, "",
					fmt.Sprintf("DoD goal %.3f, trigger %.3f", goal, trigger))
			}
		}
	}
	return trigger
}

// usedThroughput returns the node's cumulative discharge Ah (C_used in
// Eq 7), recovered from NAT and the lifetime budget.
func usedThroughput(n *node.Node) units.AmpereHour {
	spec := n.Battery().Spec()
	return units.AmpereHour(n.Metrics().NAT * float64(spec.LifetimeThroughput))
}

// clampFloor keeps planned floors inside a sane protective band.
func clampFloor(f float64) float64 {
	if f < 0.05 {
		return 0.05
	}
	if f > 0.6 {
		return 0.6
	}
	return f
}

// clampTrigger keeps the planned trigger inside (0, 1).
func clampTrigger(t float64) float64 {
	if t < 0.10 {
		return 0.10
	}
	if t > 0.95 {
		return 0.95
	}
	return t
}
