package fleet

// The shard-aggregation property tests: per-shard summaries, merged in
// shard order, must recombine to exactly the values one whole-fleet pass
// produces — counts, histogram bins, indices and the suspect edges. The
// fleet is perturbed through the real node step path so SoC, health, DVFS
// state, and suspect flags all vary across nodes.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/units"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

const propNodes = 16

// perturbedFleet builds a fleet whose nodes have diverged: most host a
// service VM and were stepped different numbers of ticks under scarce
// solar (varying SoC and health), some are
// frequency-capped, some carry battery wear past end-of-life, and some
// have a quarantined sensor chain. The perturbation is deterministic, so
// every call reproduces identical per-node state regardless of shard
// size.
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
			if err := nd.Step(15*time.Minute, units.Watt(float64(10*i)), 0); err != nil {
				t.Fatal(err)
			}
		}
		if i%4 == 0 {
			nd.Server().StepDownFrequency()
		}
		if i%5 == 0 {
			// Wear deep enough that some nodes cross the 0.8 end-of-life
			// line while others stay above it.
			nd.InjectBatteryWear(0.1+0.03*float64(i), 0.05, 0)
		}
		if i%6 == 2 {
			nd.SetSensorFault(faults.SensorFault{Mode: faults.ModeNaN})
			if err := nd.Step(time.Minute, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

// newSummary allocates a summary reset for a new pass.
func newSummary() *Summary {
	s := &Summary{}
	s.Reset()
	return s
}

// summarize runs one whole pass over [lo, hi), tracking suspect edges
// against prev.
func summarize(s *Summary, f *Fleet, lo, hi int, prev []bool) {
	for i := lo; i < hi; i++ {
		nd := f.Views()[i]
		s.ObserveNode(i, nd, true)
		if nd.MetricsSuspect() != prev[i] {
			s.ObserveChanged(i)
		}
	}
	s.Valid = true
}

func TestSummaryShardRecombination(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			shardSize := (propNodes + shards - 1) / shards
			f := perturbedFleet(t, shardSize)
			if got := len(f.Shards()); got != shards {
				t.Fatalf("fleet partitioned into %d shards, want %d", got, shards)
			}
			prev := make([]bool, propNodes)

			// Reference: one serial whole-fleet pass.
			whole := newSummary()
			summarize(whole, f, 0, propNodes, prev)

			// Per-shard passes merged in shard order.
			total := newSummary()
			var changed []int
			for _, sh := range f.Shards() {
				part := newSummary()
				summarize(part, f, sh.Lo, sh.Hi, prev)
				total.Add(part)
				changed = append(changed, part.Changed...)
			}
			total.Valid = true

			if total.Capped != whole.Capped {
				t.Errorf("capped = %d, want %d", total.Capped, whole.Capped)
			}
			if total.EOLIndex != whole.EOLIndex {
				t.Errorf("EOLIndex = %d, want %d", total.EOLIndex, whole.EOLIndex)
			}
			if total.Bins != whole.Bins {
				t.Errorf("SoC bins diverged: %v vs %v", total.Bins, whole.Bins)
			}
			if !slices.Equal(changed, whole.Changed) {
				t.Errorf("changed indices diverged: %v vs %v", changed, whole.Changed)
			}
			if len(whole.Changed) == 0 || whole.Capped == 0 || whole.EOLIndex < 0 {
				t.Errorf("perturbation too tame (suspect edges %d, capped %d, eol %d); properties not exercised",
					len(whole.Changed), whole.Capped, whole.EOLIndex)
			}
		})
	}
}

// TestSummaryTieBreaks pins the ascending-index tie-break: when every node
// is past end-of-life, EOLIndex must resolve to the lowest index both
// within a pass and across merges; a healthy fleet reports none.
func TestSummaryTieBreaks(t *testing.T) {
	f := defaultFleet(t, 8, 4) // untouched fleet: every node identical
	prev := make([]bool, 8)
	merged := func() (whole, total *Summary) {
		whole = newSummary()
		summarize(whole, f, 0, 8, prev)
		total = newSummary()
		for _, sh := range f.Shards() {
			part := newSummary()
			summarize(part, f, sh.Lo, sh.Hi, prev)
			total.Add(part)
		}
		return whole, total
	}

	whole, total := merged()
	if total.EOLIndex != -1 || whole.EOLIndex != -1 {
		t.Errorf("healthy fleet reported EOL indices %d/%d, want -1", total.EOLIndex, whole.EOLIndex)
	}
	for _, nd := range f.Views() {
		nd.InjectBatteryWear(0.3, 0, 0) // identical wear: every node ties past EOL
	}
	whole, total = merged()
	if whole.EOLIndex != 0 || total.EOLIndex != 0 {
		t.Errorf("tie-break picked EOL indices %d (serial) / %d (merged), want 0/0", whole.EOLIndex, total.EOLIndex)
	}
}
