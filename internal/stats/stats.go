// Package stats provides the fixed-bin histogram behind the SoC
// distribution of Fig 19.
//
// Unlike internal/telemetry — whose atomic counters and histograms serve a
// live /metrics endpoint — a Histogram is a plain single-goroutine value
// that ends up embedded in experiment results (sim.Result.SoCHistogram), so
// it favors exactness and simplicity over concurrency.
package stats

import "fmt"

// Histogram is a fixed-bin histogram over [lo, hi). Construct with
// NewHistogram.
type Histogram struct {
	lo, hi float64
	counts []int64
	total  int64
	under  int64
	over   int64
}

// NewHistogram creates a histogram with n equal bins spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: need at least one bin, got %d", n)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: need lo < hi, got [%v, %v)", lo, hi)
	}
	return &Histogram{lo: lo, hi: hi, counts: make([]int64, n)}, nil
}

// Observe adds one sample. Values outside the range are tallied in
// under/overflow counters rather than dropped silently.
func (h *Histogram) Observe(x float64) {
	h.total++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		// The top boundary belongs to the last bin so that a [0,1]
		// quantity like SoC at exactly 1.0 is not an overflow.
		if x == h.hi {
			h.counts[len(h.counts)-1]++
			return
		}
		h.over++
	default:
		i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.counts)))
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
		h.counts[i]++
	}
}

// Reset zeroes every counter, keeping the bin geometry. Per-shard scratch
// histograms reset at the start of each accumulation pass instead of being
// reallocated.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.total, h.under, h.over = 0, 0, 0
}

// Merge adds o's counts into h. Both histograms must share the same bin
// geometry; merging per-shard histograms bin-by-bin recombines to exactly
// the counts a single whole-fleet histogram would hold, because counts are
// integers and every sample lands in exactly one shard.
func (h *Histogram) Merge(o *Histogram) error {
	if o.lo != h.lo || o.hi != h.hi || len(o.counts) != len(h.counts) {
		return fmt.Errorf("stats: merge histogram [%v, %v)/%d bins into [%v, %v)/%d bins",
			o.lo, o.hi, len(o.counts), h.lo, h.hi, len(h.counts))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.under += o.under
	h.over += o.over
	return nil
}

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []int64 {
	return append([]int64(nil), h.counts...)
}

// Fractions returns per-bin probability mass (zeros when empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Total returns the number of observations (including out-of-range).
func (h *Histogram) Total() int64 { return h.total }

// OutOfRange returns underflow and overflow counts.
func (h *Histogram) OutOfRange() (under, over int64) { return h.under, h.over }
