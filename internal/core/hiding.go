package core

import (
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/vm"
)

// baatH is BAAT-h (Table 4): aging-aware VM migration only. It watches a
// single aging signal — deep-discharge exposure (DDT), the most direct
// symptom of a weak or overloaded battery — and migrates load off batteries
// that sit visibly deeper than the fleet. Per §VI-B it lacks the holistic
// weighted-aging view: migration *targets* are drawn at random from nodes
// with capacity rather than ranked by Eq 6, which makes its migrations
// "random and low efficiency" and costs throughput (§VI-F).
type baatH struct {
	cfg Config
}

// ddtImbalanceFactor is how far above the fleet-average deep-discharge time
// a node must be before BAAT-h migrates load away from it.
const ddtImbalanceFactor = 1.15

// natImbalanceFactor is the bootstrap criterion before any battery has seen
// deep discharge: throughput imbalance.
const natImbalanceFactor = 1.15

func init() {
	Register("baat-h", Descriptor{
		Display: "BAAT-h",
		Aliases: []string{"baath"},
		Rank:    3,
		Doc:     "aging-aware VM migration only (the hiding arm, single-metric DDT view)",
		Options: migrationOptionDocs,
		Build: func(spec PolicySpec) (Policy, error) {
			cfg, err := configFromOptions(spec.Options)
			if err != nil {
				return nil, err
			}
			return &baatH{cfg: cfg}, nil
		},
	})
}

// Name returns the Table 4 scheme name.
func (*baatH) Name() string { return "BAAT-h" }

// PlaceVM places new VMs on the node with the least deep-discharge exposure
// (falling back to load on ties) — aging-aware but single-metric. Nodes
// with quarantined metrics report a DDT the policy cannot trust, so they
// are considered only when no trusted node has capacity.
func (*baatH) PlaceVM(ctx *Context, v *vm.VM) (*node.Node, error) {
	const tie = 1e-4
	pick := func(allowSuspect bool) *node.Node {
		var best *node.Node
		bestDDT, bestLoad := 0.0, 0.0
		for _, n := range ctx.Nodes {
			if !n.Server().CanHost(v) {
				continue
			}
			if !allowSuspect && n.MetricsSuspect() {
				continue
			}
			ddt := n.Metrics().DDT
			load := n.Server().ReservedUtilization()
			better := best == nil ||
				ddt < bestDDT-tie ||
				(ddt < bestDDT+tie && load < bestLoad)
			if better {
				best, bestDDT, bestLoad = n, ddt, load
			}
		}
		return best
	}
	best := pick(false)
	if best == nil {
		best = pick(true)
	}
	if best == nil {
		return nil, ErrNoCapacity
	}
	return best, nil
}

// Control migrates one VM off every node whose deep-discharge exposure
// (or, before any deep discharge exists, Ah throughput) exceeds the fleet
// average by the imbalance factor, to a random node with capacity.
func (p *baatH) Control(ctx *Context) error {
	if len(ctx.Nodes) < 2 {
		return nil
	}
	// Fleet averages are computed over trusted nodes only — quarantined
	// metrics would poison the baseline every other decision compares
	// against.
	var sumDDT, sumNAT float64
	var trusted int
	for _, n := range ctx.Nodes {
		if n.MetricsSuspect() {
			continue
		}
		m := n.Metrics()
		sumDDT += m.DDT
		sumNAT += m.NAT
		trusted++
	}
	var avgDDT, avgNAT float64
	if trusted > 0 {
		avgDDT = sumDDT / float64(trusted)
		avgNAT = sumNAT / float64(trusted)
	}
	for _, src := range ctx.Nodes {
		// A quarantined source is treated as worst-aged: migrate load off
		// it without consulting its (untrustworthy) metrics.
		overloaded := src.MetricsSuspect()
		if !overloaded && avgDDT > 0 {
			overloaded = src.Metrics().DDT > avgDDT*ddtImbalanceFactor
		} else if !overloaded && avgNAT > 0 {
			overloaded = src.Metrics().NAT > avgNAT*natImbalanceFactor
		}
		if !overloaded {
			continue
		}
		v := migratableVM(src)
		if v == nil {
			continue
		}
		// Non-holistic target choice: a random permutation of the other
		// nodes, first fit — but never onto another quarantined node.
		for _, idx := range ctx.Rng.Perm(len(ctx.Nodes)) {
			dst := ctx.Nodes[idx]
			if dst == src || dst.MetricsSuspect() || !dst.Server().CanHost(v) {
				continue
			}
			if err := migrate(ctx, src, dst, v.ID(), p.cfg.MigrationTime); err != nil {
				return err
			}
			break
		}
	}
	return nil
}

// migratableVM returns a running or paused VM on the node, or nil.
func migratableVM(n *node.Node) *vm.VM {
	srv := n.Server()
	for i := range srv.VMCount() {
		if v := srv.VMAt(i); v.State() == vm.Running || v.State() == vm.Paused {
			return v
		}
	}
	return nil
}
