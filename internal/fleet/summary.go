package fleet

import (
	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/node"
)

// SoCBins counts state-of-charge samples in the seven equal bins of Fig 19:
// bin k holds [k/7, (k+1)/7), and the top bin also holds SoC = 1. Both
// battery models clamp SoC to [0, 1] on every update, and a restored pack's
// SoC is validated to that range, so no sample falls outside the bins.
type SoCBins [7]int64

// Observe counts one sample.
func (b *SoCBins) Observe(soc float64) {
	b[min(int(soc*7), len(b)-1)]++
}

// Add merges o's counts into b.
func (b *SoCBins) Add(o *SoCBins) {
	for i, c := range o {
		b[i] += c
	}
}

// Counts returns the per-bin counts as a new slice.
func (b *SoCBins) Counts() []int64 { return append([]int64(nil), b[:]...) }

// Total returns the number of samples.
func (b *SoCBins) Total() int64 {
	var n int64
	for _, c := range b {
		n += c
	}
	return n
}

// Fractions returns each bin's share of the samples (zeros when empty).
func (b *SoCBins) Fractions() []float64 {
	out := make([]float64, len(b))
	total := b.Total()
	if total == 0 {
		return out
	}
	for i, c := range b {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// Summary aggregates one pass over a set of nodes — typically one shard's
// index range for one tick. Every merged field is exact: per-shard
// summaries merged in shard order (Add) recombine to the values a single
// whole-fleet pass would produce under any shard grouping. Counts count
// each node once, SoC bins add, and EOLIndex keeps the lowest index a
// serial scan would find.
type Summary struct {
	// Valid reports the summary reflects a completed pass; the engine
	// leaves it false until the first tick has run.
	Valid bool
	// Capped counts servers below their top DVFS level — the population
	// a frequency-restoring controller would touch. Zero lets such a
	// controller skip its O(n) scan entirely.
	Capped int
	// EOLIndex is the lowest node index at or below end-of-life health,
	// or -1. The engine uses it in place of a per-tick fleet scan.
	EOLIndex int
	// Bins receives one SoC sample per node when the caller asks for it
	// (the engine only samples inside the operating window, matching the
	// Fig 19 distribution).
	Bins SoCBins
	// Changed collects, in ascending order, the indices of nodes whose
	// suspect state differs from the caller-tracked previous state. It is
	// appended by ObserveChanged and not merged by Add: callers walk the
	// per-shard summaries in shard order, which is ascending index order.
	Changed []int
}

// Reset clears the summary for a new pass, keeping Changed's capacity.
func (s *Summary) Reset() {
	s.Valid = false
	s.Capped = 0
	s.EOLIndex = -1
	s.Bins = SoCBins{}
	s.Changed = s.Changed[:0]
}

// ObserveNode folds node i into the summary and returns its state of
// charge (saving the caller a second pack read for its own per-node
// bookkeeping). observeSoC gates the Bins sample.
func (s *Summary) ObserveNode(i int, n *node.Node, observeSoC bool) float64 {
	// node.SoC/Health are the devirtualized fast accessors: no interface
	// call. This fold runs for every node every tick.
	soc := n.SoC()
	if observeSoC {
		s.Bins.Observe(soc)
	}
	if s.EOLIndex < 0 && n.Health() < battery.EndOfLifeHealth {
		s.EOLIndex = i
	}
	srv := n.Server()
	if srv.FrequencyIndex() < srv.TopFrequencyIndex() {
		s.Capped++
	}
	return soc
}

// ObserveChanged records node i as having flipped suspect state. Callers
// invoke it in ascending index order within a pass.
func (s *Summary) ObserveChanged(i int) {
	s.Changed = append(s.Changed, i)
}

// Add merges o into s. Merging per-shard summaries in ascending shard
// order reproduces a serial whole-fleet scan: the first-match field
// (EOLIndex) keeps the earliest, and counts and bins add exactly. Changed
// is deliberately not merged (see the field comment).
func (s *Summary) Add(o *Summary) {
	s.Capped += o.Capped
	if s.EOLIndex < 0 {
		s.EOLIndex = o.EOLIndex
	}
	s.Bins.Add(&o.Bins)
}
