package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/units"
)

// defaultFleet builds an n-node fleet of default nodes.
func defaultFleet(t *testing.T, n, shardSize int) *Fleet {
	t.Helper()
	f, err := New(Config{
		Nodes:     n,
		ShardSize: shardSize,
		Node:      func(int) (node.Config, error) { return node.DefaultConfig(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetMatchesNodeNew pins the view contract: a node initialized into
// the fleet's node slice is indistinguishable — same ID, same serialized
// state — from one built by node.New, and stepping it produces identical
// state.
func TestFleetMatchesNodeNew(t *testing.T) {
	f := defaultFleet(t, 3, 0)
	for i, view := range f.Views() {
		ref, err := node.New(fmt.Sprintf("node-%d", i), node.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := view.StepOffline(time.Minute, units.Watt(50)); err != nil {
			t.Fatal(err)
		}
		if err := ref.StepOffline(time.Minute, units.Watt(50)); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(view.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ref.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("node %d: in-place state diverged from node.New:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestPartition pins shard geometry: full shards of the configured size,
// the remainder in the last shard, ascending contiguous coverage.
func TestPartition(t *testing.T) {
	tests := []struct {
		nodes, size int
		wantShards  int
		wantLast    int // size of the last shard
	}{
		{nodes: 6, size: 0, wantShards: 1, wantLast: 6},
		{nodes: 64, size: 0, wantShards: 1, wantLast: 64},
		{nodes: 100, size: 64, wantShards: 2, wantLast: 36},
		{nodes: 128, size: 64, wantShards: 2, wantLast: 64},
		{nodes: 12, size: 3, wantShards: 4, wantLast: 3},
		{nodes: 13, size: 3, wantShards: 5, wantLast: 1},
	}
	for _, tt := range tests {
		shards := partition(tt.nodes, tt.size)
		if len(shards) != tt.wantShards {
			t.Errorf("partition(%d, %d): %d shards, want %d", tt.nodes, tt.size, len(shards), tt.wantShards)
			continue
		}
		next := 0
		for i, sh := range shards {
			if sh.Lo != next || sh.Hi <= sh.Lo {
				t.Errorf("partition(%d, %d): shard %d = [%d, %d), want contiguous from %d",
					tt.nodes, tt.size, i, sh.Lo, sh.Hi, next)
			}
			next = sh.Hi
		}
		if next != tt.nodes {
			t.Errorf("partition(%d, %d): covers %d nodes, want %d", tt.nodes, tt.size, next, tt.nodes)
		}
		if last := shards[len(shards)-1]; last.Hi-last.Lo != tt.wantLast {
			t.Errorf("partition(%d, %d): last shard holds %d, want %d", tt.nodes, tt.size, last.Hi-last.Lo, tt.wantLast)
		}
	}
}

// TestFleetConfigErrors covers the constructor's validation surface.
func TestFleetConfigErrors(t *testing.T) {
	bad := []Config{
		{Nodes: 0, Node: func(int) (node.Config, error) { return node.DefaultConfig(), nil }},
		{Nodes: 4, ShardSize: -1, Node: func(int) (node.Config, error) { return node.DefaultConfig(), nil }},
		{Nodes: 4},
		{Nodes: 4, Node: func(int) (node.Config, error) { return node.Config{}, nil }},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: New() accepted an invalid configuration", i)
		}
	}
}
