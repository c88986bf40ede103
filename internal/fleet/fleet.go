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
// Per-shard Summary values accumulate integer aggregates (suspect and
// capped counts, SoC histogram bins, the first end-of-life index) that
// recombine exactly — bin-by-bin, count-by-count — to whole-fleet values,
// which is what lets a controller consume O(shards) summaries instead of
// rescanning O(nodes) state. The float fields (worst health and the SoC
// sum) merge in shard order; the minimum is exact, and the sum is
// deterministic for a fixed shard size but rounds differently from a flat
// serial sum, so consumers must treat it as telemetry-grade and never let
// it pick between otherwise-equal trace-visible decisions.
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

// Columns is the fleet-wide allocator scratch: one dense column per
// per-node quantity the tick prologue reads or writes (SoC snapshot,
// demand, grants, sort order). The engine reuses them every tick, so the
// steady-state step path allocates nothing. SortKey and SortScratch are
// the radix-ordering scratch for the engine's incremental SoC order: a
// key column and a ping-pong index buffer, preallocated here so the
// per-control-pass sort stays alloc-free.
type Columns struct {
	SoC         []float64
	Demand      []float64
	LoadGrant   []float64
	ChargeGrant []float64
	Order       []int
	SortKey     []uint64
	SortScratch []int
}

// tierRun is a maximal run of consecutive node indices whose battery
// models occupy consecutive slots of one per-tier slab. Fleets are
// usually one run (homogeneous) or a few (the contiguous chemistry blocks
// of Config.BatteryFleet).
type tierRun struct {
	lo, hi int  // node index range [lo, hi)
	off    int  // slab offset of node lo's model within its tier slab
	linear bool // linears slab vs packs slab
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
	cols     Columns
	runs     []tierRun
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
	type placement struct {
		linear bool
		off    int
	}
	places := make([]placement, n)
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
			places[i] = placement{linear: true, off: linCursor}
			parts.Linear = &f.linears[linCursor]
			linCursor++
		} else {
			places[i] = placement{off: packCursor}
			parts.Pack = &f.packs[packCursor]
			packCursor++
		}
		if err := node.NewInto(&f.nodes[i], fmt.Sprintf("node-%d", i), ncfg, parts); err != nil {
			return nil, err
		}
		f.views[i] = &f.nodes[i]
	}
	f.cols = Columns{
		SoC:         make([]float64, n),
		Demand:      make([]float64, n),
		LoadGrant:   make([]float64, n),
		ChargeGrant: make([]float64, n),
		Order:       make([]int, n),
		SortKey:     make([]uint64, n),
		SortScratch: make([]int, n),
	}
	// Coalesce the per-node placements into maximal tier runs; slab
	// cursors advance in node order, so consecutive same-tier nodes are
	// automatically consecutive in their slab.
	for i := 0; i < n; {
		j := i + 1
		for j < n && places[j].linear == places[i].linear {
			j++
		}
		f.runs = append(f.runs, tierRun{lo: i, hi: j, off: places[i].off, linear: places[i].linear})
		i = j
	}
	f.shards = partition(n, cfg.ShardSize)
	return f, nil
}

// SoCColumn fills dst (length Len) with every node's state of charge,
// sweeping the per-chemistry battery slabs with the columnar batch
// kernels instead of calling through each node. The engine calls this for
// the snapshot behind every SoC ordering pass.
func (f *Fleet) SoCColumn(dst []float64) {
	if len(dst) != len(f.nodes) {
		panic("fleet: SoCColumn length mismatch")
	}
	for _, r := range f.runs {
		if r.linear {
			battery.LinearSoCs(f.linears[r.off:r.off+(r.hi-r.lo)], dst[r.lo:r.hi])
		} else {
			battery.PackSoCs(f.packs[r.off:r.off+(r.hi-r.lo)], dst[r.lo:r.hi])
		}
	}
}

// Len returns the fleet size.
func (f *Fleet) Len() int { return len(f.nodes) }

// Views returns the conventional *node.Node handles into the fleet's
// slabs. The slice is shared, not copied: callers must treat it as
// read-only (the nodes themselves are mutable through the pointers, as
// with any fleet).
func (f *Fleet) Views() []*node.Node { return f.views }

// Shards returns the rack-group partition. The slice is shared; shard
// boundaries are fixed at construction.
func (f *Fleet) Shards() []Shard { return f.shards }

// Cols returns the fleet's allocator scratch columns (shared, reused
// every tick by the engine).
func (f *Fleet) Cols() *Columns { return &f.cols }
