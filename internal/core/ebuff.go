package core

import (
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/vm"
)

// eBuff is the aggressive energy-buffer baseline (Table 4): it places VMs by
// load balance alone, never throttles, never migrates, and lets every
// battery discharge to its protection cutoff. It represents the prior-work
// designs of [4, 7] that manage supply/demand mismatch with no awareness of
// battery aging.
type eBuff struct{}

func init() {
	Register("ebuff", Descriptor{
		Display: "e-Buff",
		Aliases: []string{"e-buff"},
		Rank:    1,
		Doc:     "aggressive green-energy buffering with no aging management (the paper's baseline)",
		Build:   func(PolicySpec) (Policy, error) { return &eBuff{}, nil },
	})
}

// Name returns the Table 4 scheme name.
func (*eBuff) Name() string { return "e-Buff" }

// PlaceVM picks the least-loaded node with capacity.
func (*eBuff) PlaceVM(ctx *Context, v *vm.VM) (*node.Node, error) {
	if best := leastReserved(ctx.Nodes, v); best != nil {
		return best, nil
	}
	return nil, ErrNoCapacity
}

// Control steps every server up to its top frequency — e-Buff always runs
// servers flat out, spending battery as needed. A server already at the
// top is left as it is, so the pass only undoes caps set from outside.
func (*eBuff) Control(ctx *Context) error {
	for _, n := range ctx.Nodes {
		for n.Server().StepUpFrequency() {
		}
	}
	return nil
}
