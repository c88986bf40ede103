package sim

// The serial≡parallel equivalence sweep: the guarantee that
// Config.Workers and Config.ShardSize trade wall time only, never results.
// Every layout must produce a byte-identical marshaled Result for the same
// seed and weather trace — not merely close values. The sweep runs under
// -race via `make check`, so it doubles as the data-race gate on the
// fan-out.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/telemetry"
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

// equivalenceRun plays a fixed three-day trace with the given seed, shard
// size and worker count, optionally under the chaos fault profile. The
// negative threshold forces the parallel path at this small size, so with
// several shards the claiming genuinely interleaves across workers. A
// recorder is attached, and its event log (migrations, DVFS caps,
// end-of-life and degraded-mode edges, in emission order) is part of the
// comparison.
func equivalenceRun(t *testing.T, seed int64, shardSize, workers int, chaos bool) []byte {
	t.Helper()
	rec := telemetry.NewRecorder()
	cfg := DefaultConfig()
	cfg.Policy = core.PolicySpec{Name: "baat"}
	cfg.Nodes = 12
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.ShardSize = shardSize
	cfg.ParallelThreshold = -1
	cfg.Telemetry = rec
	cfg.Services = workload.PrototypeServices()
	cfg.JobsPerDay = 4
	cfg.Node.AgingConfig.AccelFactor = 25
	cfg.Solar.Scale = 1.5 * float64(cfg.Nodes) / 6
	if chaos {
		fcfg, err := faults.Profile("chaos", 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = fcfg
	}
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
	events, err := json.Marshal(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	out := append(marshaledResult(t, res), ck.Bytes()...)
	return append(out, events...)
}

// TestSerialParallelEquivalence requires every shard size and worker
// count to reproduce the single-shard serial run byte for byte. Shard
// sizes 1, 3 and 12 split the 12-node fleet into 12, 4 and 1 shards, so
// the Fig 19 bins the engine reads from the shards' tallies are summed
// from many shards, from a few and from one. The first two seeds also run
// under the chaos fault profile, which drives degraded-mode edges.
// TestFirstEndOfLifeTieBreak and TestParallelErrorDeterministic cover the
// tallies' other two values.
func TestSerialParallelEquivalence(t *testing.T) {
	seeds := []int64{1, 7, 42, 1234, 99991}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for k, seed := range seeds {
		for _, chaos := range []bool{false, true} {
			if chaos && k >= 2 {
				continue
			}
			// The single-shard serial run is the reference. Worker counts
			// above the shard count are trimmed to it, so they are skipped.
			serial := equivalenceRun(t, seed, 12, 1, chaos)
			for _, shardSize := range []int{1, 3} {
				for _, workers := range []int{1, 2, 4, 8} {
					if workers > 12/shardSize {
						continue
					}
					if !bytes.Equal(serial, equivalenceRun(t, seed, shardSize, workers, chaos)) {
						t.Errorf("seed %d chaos %v: ShardSize=%d Workers=%d diverged from the single-shard serial run",
							seed, chaos, shardSize, workers)
					}
				}
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
	if !s.parallel || len(s.tallies) != 4 {
		t.Fatalf("parallel=%v shards=%d, want genuine 4-shard parallel setup", s.parallel, len(s.tallies))
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

// TestFirstEndOfLifeTieBreak pins the end-of-life tie-break: when every
// node of an 8-node fleet carries the same wear past end-of-life from the
// start, the first tick must name node-0, the lowest index, in both the
// battery_eol event and Result.FleetLifetime, whatever the shard size or
// worker count. A healthy fleet reports no end-of-life.
func TestFirstEndOfLifeTieBreak(t *testing.T) {
	run := func(t *testing.T, shardSize, workers int, wear float64) (*Result, []telemetry.Event) {
		t.Helper()
		rec := telemetry.NewRecorder()
		s := newSim(t, "ebuff", func(c *Config) {
			c.Nodes = 8
			c.ShardSize = shardSize
			c.Workers = workers
			c.ParallelThreshold = -1
			c.Telemetry = rec
		})
		for _, nd := range s.nodes {
			nd.InjectBatteryWear(wear, 0, 0)
		}
		res, err := s.Run([]solar.Weather{solar.Sunny})
		if err != nil {
			t.Fatal(err)
		}
		var eol []telemetry.Event
		for _, ev := range rec.Events() {
			if ev.Type == telemetry.EventBatteryEOL {
				eol = append(eol, ev)
			}
		}
		return res, eol
	}
	for _, shardSize := range []int{2, 8} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shard_size=%d/workers=%d", shardSize, workers), func(t *testing.T) {
				res, eol := run(t, shardSize, workers, 0.3)
				tick := DefaultConfig().Tick
				if res.FleetLifetime != tick {
					t.Errorf("FleetLifetime = %v, want the first tick (%v)", res.FleetLifetime, tick)
				}
				if len(eol) != 1 || eol[0].Node != "node-0" || eol[0].At != tick {
					t.Errorf("battery_eol events = %+v, want one naming node-0 at %v", eol, tick)
				}

				res, eol = run(t, shardSize, workers, 0)
				if res.FleetLifetime != 0 || len(eol) != 0 {
					t.Errorf("healthy fleet: FleetLifetime = %v with %d battery_eol events, want none",
						res.FleetLifetime, len(eol))
				}
			})
		}
	}
}
