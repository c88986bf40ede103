// Package stats_test pins fleet.SoCBins, the seven-bin state-of-charge
// histogram of Fig 19, to the rule of the general fixed-bin histogram it
// replaced. That rule is kept here as the reference; the directory holds
// tests only.
package stats_test

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/green-dc/baat/internal/fleet"
)

// histogramBin is the reference bin rule: n left-closed bins over
// [lo, hi), with hi itself in the top bin.
func histogramBin(x, lo, hi float64, n int) int {
	if x == hi {
		return n - 1
	}
	i := int((x - lo) / (hi - lo) * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// TestHistogramBinning pins SoCBins.Observe to the reference rule with
// lo = 0, hi = 1 and n = 7 at every bin edge k/7, one ULP either side of
// each, and the ends of the range.
func TestHistogramBinning(t *testing.T) {
	var samples []float64
	for k := 0; k <= 7; k++ {
		x := float64(k) / 7
		samples = append(samples, x, math.Nextafter(x, 0), math.Nextafter(x, 1))
	}
	samples = append(samples, 0, 1)
	var all, want fleet.SoCBins
	for _, x := range samples {
		var one fleet.SoCBins
		one.Observe(x)
		ref := histogramBin(x, 0, 1, len(want))
		if one[ref] != 1 || one.Total() != 1 {
			t.Errorf("Observe(%v) = %v, want bin %d", x, one, ref)
		}
		all.Observe(x)
		want[ref]++
	}
	if all != want {
		t.Errorf("bins = %v, want %v", all, want)
	}
	if all.Total() != int64(len(samples)) {
		t.Errorf("Total = %d, want %d", all.Total(), len(samples))
	}
	if !slices.Equal(all.Counts(), want[:]) {
		t.Errorf("Counts = %v, want %v", all.Counts(), want[:])
	}
}

func TestHistogramTopBoundaryBelongsToLastBin(t *testing.T) {
	var b fleet.SoCBins
	b.Observe(1.0) // a battery at exactly 100 % SoC
	if got := b[len(b)-1]; got != 1 || b.Total() != 1 {
		t.Errorf("bins = %v, want one sample in the top bin", b)
	}
}

func TestHistogramFractions(t *testing.T) {
	var b fleet.SoCBins
	if f := b.Fractions(); slices.ContainsFunc(f, func(x float64) bool { return x != 0 }) {
		t.Errorf("empty bins have fractions %v, want zeros", f)
	}
	b.Observe(0.2)  // bin 1
	b.Observe(0.25) // bin 1
	b.Observe(0.7)  // bin 4
	want := []float64{0, 2.0 / 3, 0, 0, 1.0 / 3, 0, 0}
	for i, f := range b.Fractions() {
		if math.Abs(f-want[i]) > 1e-12 {
			t.Errorf("fractions = %v, want %v", b.Fractions(), want)
			break
		}
	}
}

// TestHistogramFractionsSumToOneProperty: each bin's fraction is its share
// of the samples, and the fractions sum to one.
func TestHistogramFractionsSumToOneProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var b fleet.SoCBins
		for _, r := range raw {
			b.Observe(float64(r%101) / 100)
		}
		var sum float64
		for i, f := range b.Fractions() {
			if f != float64(b[i])/float64(len(raw)) {
				return false
			}
			sum += f
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
