package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewHistogram(2, 1, 4); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.0, 0.1, 0.3, 0.6, 0.9, 0.99} {
		h.Observe(x)
	}
	want := []int64{2, 1, 1, 2}
	got := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bin %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d, want 6", h.Total())
	}
}

func TestHistogramTopBoundaryBelongsToLastBin(t *testing.T) {
	h, err := NewHistogram(0, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(1.0) // a battery at exactly 100 % SoC
	if got := h.Counts()[6]; got != 1 {
		t.Errorf("top bin = %d, want 1", got)
	}
	if _, over := h.OutOfRange(); over != 0 {
		t.Errorf("overflow = %d, want 0", over)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h, err := NewHistogram(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(-0.5)
	h.Observe(1.5)
	under, over := h.OutOfRange()
	if under != 1 || over != 1 {
		t.Errorf("OutOfRange = (%d, %d), want (1, 1)", under, over)
	}
}

func TestHistogramFractions(t *testing.T) {
	h, err := NewHistogram(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f := h.Fractions(); f[0] != 0 || f[1] != 0 {
		t.Error("empty histogram fractions not zero")
	}
	h.Observe(0.2)
	h.Observe(0.3)
	h.Observe(0.7)
	f := h.Fractions()
	if math.Abs(f[0]-2.0/3) > 1e-12 || math.Abs(f[1]-1.0/3) > 1e-12 {
		t.Errorf("fractions = %v, want [2/3, 1/3]", f)
	}
}

func TestHistogramFractionsSumToOneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		h, err := NewHistogram(0, 1, 7)
		if err != nil {
			return false
		}
		for _, r := range raw {
			h.Observe(float64(r%101) / 100)
		}
		if len(raw) == 0 {
			return true
		}
		var sum float64
		for _, fr := range h.Fractions() {
			sum += fr
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
