// Package fleet owns the warehouse-scale storage layout of a battery-node
// fleet: a struct-of-arrays arrangement where every node's server, battery
// model, aging tracker, and damage model live in contiguous per-component
// slabs instead of individually heap-allocated objects. The existing
// component types (node.Node, battery.Pack, …) are kept as views into the
// slabs — node i is &nodes[i], its pack is &packs[i] — so every API built
// on *node.Node keeps working while the hot per-tick loops walk dense
// memory.
//
// The fleet is partitioned into rack-group shards (Shard), each owning a
// contiguous index range. Shards hold no randomness of their own, so
// sharded runs stay bit-identical however many goroutines execute them.
// SoCBins is the Fig 19 state-of-charge histogram; integer bin counts add
// exactly, so per-shard bins summed in any order give the whole fleet's.
//
// Pool is the reusable worker fan-out that executes shards concurrently:
// workers are long-lived and claim shard indices from an atomic cursor,
// so the steady-state tick path spawns no goroutines and allocates
// nothing. See docs/ARCHITECTURE.md for how the pieces compose with the
// simulation engine, checkpoint/resume, and fault injection.
package fleet

import (
	"fmt"

	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/server"
)

// DefaultShardSize is the rack-group granularity when Config.ShardSize is
// zero: 64 nodes ≈ two Open Rack columns, small enough that shards spread
// across workers at modest fleet sizes and large enough that per-shard
// bookkeeping amortizes.
const DefaultShardSize = 64

// Config assembles a fleet.
type Config struct {
	// Nodes is the fleet size.
	Nodes int
	// ShardSize is the rack-group partition width (the last shard may be
	// smaller). Zero means DefaultShardSize.
	ShardSize int
	// Node returns node i's configuration. It is called exactly once per
	// node, in ascending index order — construction-time randomness (e.g.
	// manufacturing variation drawn from a caller stream) therefore lands
	// on the same node it always has, which golden traces rely on.
	Node func(i int) (node.Config, error)
	// Model declares node i's battery model tier ahead of construction so
	// the per-tier slabs (electrochemical packs vs. linear models) can be
	// sized exactly — Node is called once per node, so the fleet cannot
	// pre-scan configs. It must agree with what Node(i) returns; a
	// mismatch is a construction error. Nil declares every node
	// electrochemical, so a node whose config selects the linear tier is
	// such a mismatch.
	Model func(i int) battery.Kind
}

// Fleet is the struct-of-arrays storage of a node fleet. All component
// state lives in the contiguous slabs below; the views slice exposes the
// conventional *node.Node handles into them.
type Fleet struct {
	nodes    []node.Node
	views    []*node.Node
	servers  []server.Server
	packs    []battery.Pack   // electrochemical tiers (lead-acid, LFP)
	linears  []battery.Linear // linear coulomb-counting tier
	trackers []aging.Tracker
	models   []aging.Model
	shards   []Shard
}

// New builds a fleet: one contiguous slab per component type, every node
// initialized in place into its slab slots, and the shard partition laid
// over the index space.
func New(cfg Config) (*Fleet, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("fleet: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.ShardSize < 0 {
		return nil, fmt.Errorf("fleet: shard size must be non-negative, got %d", cfg.ShardSize)
	}
	if cfg.Node == nil {
		return nil, fmt.Errorf("fleet: Config.Node must not be nil")
	}
	n := cfg.Nodes
	// Size the per-tier battery slabs. With no Model declaration every
	// node gets an electrochemical slot.
	nLinear := 0
	if cfg.Model != nil {
		for i := 0; i < n; i++ {
			if cfg.Model(i).Normalize() == battery.KindLinear {
				nLinear++
			}
		}
	}
	f := &Fleet{
		nodes:    make([]node.Node, n),
		views:    make([]*node.Node, n),
		servers:  make([]server.Server, n),
		packs:    make([]battery.Pack, n-nLinear),
		linears:  make([]battery.Linear, nLinear),
		trackers: make([]aging.Tracker, n),
		models:   make([]aging.Model, n),
	}
	packCursor, linCursor := 0, 0
	for i := 0; i < n; i++ {
		ncfg, err := cfg.Node(i)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %d config: %w", i, err)
		}
		kind := ncfg.BatterySpec.Chemistry.Normalize()
		if cfg.Model != nil {
			if declared := cfg.Model(i).Normalize(); declared != kind {
				return nil, fmt.Errorf("fleet: node %d declared battery model %q but its config selects %q",
					i, declared, kind)
			}
		} else if kind == battery.KindLinear {
			return nil, fmt.Errorf("fleet: node %d config selects %q but a nil Config.Model declares every node electrochemical",
				i, kind)
		}
		parts := node.Parts{
			Server:  &f.servers[i],
			Tracker: &f.trackers[i],
			Model:   &f.models[i],
		}
		if kind == battery.KindLinear {
			parts.Linear = &f.linears[linCursor]
			linCursor++
		} else {
			parts.Pack = &f.packs[packCursor]
			packCursor++
		}
		if err := node.NewInto(&f.nodes[i], fmt.Sprintf("node-%d", i), ncfg, parts); err != nil {
			return nil, err
		}
		f.views[i] = &f.nodes[i]
	}
	f.shards = partition(n, cfg.ShardSize)
	return f, nil
}

// Views returns the conventional *node.Node handles into the fleet's
// slabs. The slice is shared, not copied: callers must treat it as
// read-only (the nodes themselves are mutable through the pointers, as
// with any fleet).
func (f *Fleet) Views() []*node.Node { return f.views }

// Shards returns the rack-group partition. The slice is shared; shard
// boundaries are fixed at construction.
func (f *Fleet) Shards() []Shard { return f.shards }
