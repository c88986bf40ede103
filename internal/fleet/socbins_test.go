package fleet

// The shard-recombination property the engine's per-shard tallies rely on:
// per-shard SoC bins, added in shard order, equal one whole-fleet pass, and
// the first shard holding a node below end-of-life health holds the lowest
// such index. The fleet is perturbed through the real node step path so
// SoC and health vary across nodes.

import (
	"fmt"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/units"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

const propNodes = 16

// perturbedFleet builds a fleet whose nodes have diverged: most host a
// service VM and were stepped different numbers of ticks under scarce
// solar (varying SoC and health), and some carry battery wear past
// end-of-life. The perturbation is deterministic, so every call reproduces
// identical per-node state regardless of shard size.
func perturbedFleet(t *testing.T, shardSize int) *Fleet {
	t.Helper()
	f, err := New(Config{
		Nodes:     propNodes,
		ShardSize: shardSize,
		Node: func(i int) (node.Config, error) {
			cfg := node.DefaultConfig()
			cfg.AgingConfig.AccelFactor = 50
			return cfg, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := workload.ProfileFor(workload.WebServing)
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range f.Views() {
		if i%3 != 0 {
			v, err := vm.New(fmt.Sprintf("vm-%d", i), prof)
			if err != nil {
				t.Fatal(err)
			}
			if err := nd.Server().Attach(v); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 1+i%5; k++ {
			if err := nd.Step(time.Hour, units.Watt(float64(10*i)), 0); err != nil {
				t.Fatal(err)
			}
		}
		if i%5 == 0 {
			// Wear deep enough that some nodes cross the 0.8 end-of-life
			// line while others stay above it.
			nd.InjectBatteryWear(0.1+0.03*float64(i), 0.05, 0)
		}
	}
	return f
}

// tallyRange bins the SoC of the nodes in [lo, hi) and returns the lowest
// index among them below end-of-life health (-1 if none).
func tallyRange(f *Fleet, lo, hi int) (bins SoCBins, eol int) {
	eol = -1
	for i := lo; i < hi; i++ {
		nd := f.Views()[i]
		bins.Observe(nd.SoC())
		if eol < 0 && nd.Health() < battery.EndOfLifeHealth {
			eol = i
		}
	}
	return bins, eol
}

func TestSummaryShardRecombination(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			shardSize := (propNodes + shards - 1) / shards
			f := perturbedFleet(t, shardSize)
			if got := len(f.Shards()); got != shards {
				t.Fatalf("fleet partitioned into %d shards, want %d", got, shards)
			}

			// Reference: one serial whole-fleet pass.
			wholeBins, wholeEOL := tallyRange(f, 0, propNodes)

			// Per-shard passes read in shard order.
			var bins SoCBins
			eol := -1
			for _, sh := range f.Shards() {
				b, e := tallyRange(f, sh.Lo, sh.Hi)
				bins.Add(&b)
				if eol < 0 {
					eol = e
				}
			}

			if bins != wholeBins {
				t.Errorf("SoC bins diverged: %v vs %v", bins, wholeBins)
			}
			if eol != wholeEOL {
				t.Errorf("first end-of-life index = %d, want %d", eol, wholeEOL)
			}
			occupied := 0
			for _, c := range wholeBins {
				if c > 0 {
					occupied++
				}
			}
			if occupied < 2 || wholeEOL < 0 {
				t.Errorf("perturbation too tame (%d occupied SoC bins, eol %d); properties not exercised",
					occupied, wholeEOL)
			}
		})
	}
}
