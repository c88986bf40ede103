package fleet

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
