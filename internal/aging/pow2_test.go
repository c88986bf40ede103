package aging

import (
	"math"
	"math/rand"
	"testing"
)

// checkPow2 fails the test unless pow2(y) has exactly the bits of
// math.Pow(2, y) (any NaN matches any NaN). It does not call t.Helper,
// which would cost more than the two functions under test.
func checkPow2(t *testing.T, y float64) {
	got, want := pow2(y), math.Pow(2, y)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("pow2(%v [%#016x]) = %v [%#016x], math.Pow = %v [%#016x]",
			y, math.Float64bits(y), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestPow2SpecialCases pins the cases where Go's pow leaves its main path
// (0, ±0.5, NaN, ±Inf), the integer and half-integer seams of the Modf
// split, and values outside the replay's domain, which fall back to
// math.Pow.
func TestPow2SpecialCases(t *testing.T) {
	ys := []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 2, -2, 3, -7, 10, -10, 1000, -1000,
		1.5, -1.5, 2.5, -3.5, 0.25, -0.75, 1e-300, -1e-300, 5e-324,
		math.NaN(), math.Inf(1), math.Inf(-1),
		1000.5, -1000.5, 1022.9, 1023.9, 1024, -1021.5, -1022.5, -1074, -1075, -1e6, 1e6,
		math.MaxFloat64, -math.MaxFloat64,
	}
	for _, y := range ys {
		checkPow2(t, y)
		for _, d := range []float64{math.Inf(1), math.Inf(-1)} {
			checkPow2(t, math.Nextafter(y, d))
		}
	}
}

// tempFactorConstants are the (TempRefC, TempDoublingC) pairs of the
// lead-acid and LFP defaults.
var tempFactorConstants = []struct {
	name      string
	ref, step float64
}{
	{"leadacid", float64(DefaultModelConfig().TempRefC), DefaultModelConfig().TempDoublingC},
	{"lfp", float64(DefaultLFPModelConfig().TempRefC), DefaultLFPModelConfig().TempDoublingC},
}

// TestPow2MatchesPowRandom checks 5 M random exponents over each default
// constant set's clamped domain, (−20 − ref)/step to (90 − ref)/step.
func TestPow2MatchesPowRandom(t *testing.T) {
	const perSet = 5_000_000
	rng := rand.New(rand.NewSource(19))
	for _, c := range tempFactorConstants {
		lo, hi := (-20-c.ref)/c.step, (90-c.ref)/c.step
		for i := 0; i < perSet; i++ {
			checkPow2(t, lo+(hi-lo)*rng.Float64())
		}
	}
}

// TestPow2MatchesPowTemperatureGrid checks every clamped temperature in
// 10⁻⁴ °C steps, for both default constant sets, computing the exponent
// as tempFactor does and checking it and its three neighbouring floats on
// either side.
func TestPow2MatchesPowTemperatureGrid(t *testing.T) {
	const steps = 1_100_000 // (90 − (−20)) / 10⁻⁴
	for _, c := range tempFactorConstants {
		for k := 0; k <= steps; k++ {
			temp := -20 + float64(k)*1e-4
			y := (temp - c.ref) / c.step
			for u := -3; u <= 3; u++ {
				checkPow2(t, ulpStep(y, u))
			}
		}
	}
}

// ulpStep returns the float u representable steps above y (below for
// negative u).
func ulpStep(y float64, u int) float64 {
	dir := math.Inf(1)
	if u < 0 {
		dir, u = math.Inf(-1), -u
	}
	for ; u > 0; u-- {
		y = math.Nextafter(y, dir)
	}
	return y
}
