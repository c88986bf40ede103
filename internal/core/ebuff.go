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
//
// raised records that Control has brought every server to its top
// frequency. e-Buff never lowers one, so only what happened before the
// controller was built can have: a cap set under another policy before
// SetPolicy, or a checkpoint restored with capped servers, and the
// simulator builds a fresh controller for both.
type eBuff struct{ raised bool }

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
// servers flat out, spending battery as needed. Only the first pass after
// the controller is built walks the fleet; every later one would find each
// server at the top.
func (e *eBuff) Control(ctx *Context) error {
	if e.raised {
		return nil
	}
	for _, n := range ctx.Nodes {
		for n.Server().StepUpFrequency() {
		}
	}
	e.raised = true
	return nil
}
