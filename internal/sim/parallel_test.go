package sim

// The serial≡parallel equivalence sweep: the guarantee that
// Config.Workers trades wall time only, never results. Every worker count
// must produce a byte-identical marshaled Result for the same seed and
// weather trace — not merely close values. The sweep runs under -race via
// `make check`, so it doubles as the data-race gate on the fan-out.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/workload"
)

// marshaledResult serializes everything a Result carries, including the
// histogram internals json.Marshal would skip (unexported fields).
func marshaledResult(t *testing.T, res *Result) []byte {
	t.Helper()
	out, err := json.Marshal(struct {
		Result    *Result
		SoCCounts []int64
		SoCTotal  int64
	}{res, res.SoCHistogram.Counts(), res.SoCHistogram.Total()})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// equivalenceRun plays a fixed three-day trace with the given seed and
// worker count. ShardSize 3 partitions the 12-node fleet into four
// shards and the negative threshold forces the parallel path at this
// small size, so shard claiming genuinely interleaves across workers.
func equivalenceRun(t *testing.T, seed int64, workers int) []byte {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Policy = core.PolicySpec{Name: "baat"}
	cfg.Nodes = 12
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.ShardSize = 3
	cfg.ParallelThreshold = -1
	cfg.Services = workload.PrototypeServices()
	cfg.JobsPerDay = 4
	cfg.Node.AgingConfig.AccelFactor = 25
	cfg.Solar.Scale = 1.5 * float64(cfg.Nodes) / 6
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]solar.Weather{solar.Sunny, solar.Cloudy, solar.Rainy})
	if err != nil {
		t.Fatal(err)
	}
	// The end-of-run checkpoint puts every node's full state, not just its
	// summary, into the comparison.
	var ck bytes.Buffer
	if err := s.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	return append(marshaledResult(t, res), ck.Bytes()...)
}

func TestSerialParallelEquivalence(t *testing.T) {
	seeds := []int64{1, 7, 42, 1234, 99991}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		serial := equivalenceRun(t, seed, 1)
		for _, workers := range []int{2, 4, 8} {
			if !bytes.Equal(serial, equivalenceRun(t, seed, workers)) {
				t.Errorf("seed %d: Workers=%d diverged from serial result", seed, workers)
			}
		}
	}
}

// TestWorkersResolution pins the Config.Workers contract: 0 and 1 are
// serial, negative resolves to the host's CPU count, and counts beyond the
// fleet are trimmed to it.
func TestWorkersResolution(t *testing.T) {
	tests := []struct {
		name    string
		workers int
		min     int
	}{
		{"zero is serial", 0, 1},
		{"one is serial", 1, 1},
		{"negative is auto", -1, 1},
		{"capped at fleet", 100, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := newSim(t, "ebuff", func(c *Config) { c.Workers = tt.workers })
			if s.workers < tt.min || s.workers > s.cfg.Nodes {
				t.Errorf("resolved workers = %d, want within [%d, %d]", s.workers, tt.min, s.cfg.Nodes)
			}
		})
	}
}

// TestParallelErrorDeterministic checks the shard-ordered error reduction:
// when several nodes fail in one fan-out, the reported error is the
// lowest-index node's, independent of which worker hit which shard first.
// Failures are provoked through the real step path by poisoning the load
// grants of every node from index 3 up (a negative solar allocation is a
// physics-contract violation node.Step rejects).
func TestParallelErrorDeterministic(t *testing.T) {
	s := newSim(t, "ebuff", func(c *Config) {
		c.Nodes = 8
		c.Workers = 4
		c.ShardSize = 2
		c.ParallelThreshold = -1
	})
	if !s.parallel || len(s.shardSums) != 4 {
		t.Fatalf("parallel=%v shards=%d, want genuine 4-shard parallel setup", s.parallel, len(s.shardSums))
	}
	s.pool.Start()
	defer s.pool.Stop()
	var got string
	for trial := 0; trial < 20; trial++ {
		clear(s.loadGrant)
		clear(s.chargeGrant)
		for i := 3; i < s.cfg.Nodes; i++ {
			s.loadGrant[i] = -1
		}
		err := s.stepNodes(false)
		if err == nil {
			t.Fatal("stepNodes() = nil, want error")
		}
		if trial == 0 {
			got = err.Error()
			if !strings.Contains(got, "node-3") {
				t.Fatalf("first error %q, want it from node-3 (the lowest failing index)", got)
			}
			continue
		}
		if err.Error() != got {
			t.Fatalf("error changed across runs: %q vs %q", err.Error(), got)
		}
	}
}
