// Package fleet owns the warehouse-scale storage layout of a battery-node
// fleet: one contiguous slice of node.Node values, each holding its server,
// battery pack, aging tracker and damage model by value, instead of
// individually heap-allocated objects. The views slice hands out the
// conventional *node.Node handles into it — node i is &nodes[i] — so every
// API built on *node.Node keeps working while the hot per-tick loops walk
// dense memory. Which battery tier a node runs is its pack's business:
// the fleet lays out nodes and never looks at their parts.
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

	"github.com/green-dc/baat/internal/node"
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
}

// Fleet is the contiguous storage of a node fleet: the node slice, its
// view slice of *node.Node handles, the change column and the shard
// partition.
type Fleet struct {
	nodes   []node.Node
	views   []*node.Node
	changed []bool
	shards  []Shard
}

// New builds a fleet: one contiguous node slice, every node initialized in
// place in its slot with its server tracking changes into its slot of the
// change column, and the shard partition laid over the index space.
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
	f := &Fleet{
		nodes:   make([]node.Node, n),
		views:   make([]*node.Node, n),
		changed: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		ncfg, err := cfg.Node(i)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %d config: %w", i, err)
		}
		if err := node.NewInto(&f.nodes[i], fmt.Sprintf("node-%d", i), ncfg); err != nil {
			return nil, err
		}
		f.nodes[i].Server().TrackChanges(&f.changed[i])
		f.views[i] = &f.nodes[i]
	}
	f.shards = partition(n, cfg.ShardSize)
	return f, nil
}

// Views returns the conventional *node.Node handles into the fleet's
// node slice. The slice is shared, not copied: callers must treat it as
// read-only (the nodes themselves are mutable through the pointers, as
// with any fleet).
func (f *Fleet) Views() []*node.Node { return f.views }

// Changed returns the change column: slot i is set whenever node i's
// server may have changed its power draw (server.TrackChanges). Nothing in
// the fleet clears a slot; the slice is shared, and its owner clears slots
// once it has read what they flag.
func (f *Fleet) Changed() []bool { return f.changed }

// Shards returns the rack-group partition. The slice is shared; shard
// boundaries are fixed at construction.
func (f *Fleet) Shards() []Shard { return f.shards }
