package workload

import (
	"math"
	"math/rand"
	"testing"
)

// utilizationAtRef is UtilizationAt as it was written with math.Mod, the
// reference the Modf version must reproduce.
func utilizationAtRef(p Profile, pos float64) float64 {
	if len(p.Phases) == 0 {
		return p.PeakUtilization
	}
	pos = math.Mod(pos, 1)
	if pos < 0 {
		pos += 1
	}
	idx := int(pos * float64(len(p.Phases)))
	if idx >= len(p.Phases) {
		idx = len(p.Phases) - 1
	}
	return p.PeakUtilization * p.Phases[idx]
}

// TestModfMatchesModOne checks that Modf's fractional part has the bits of
// Mod(x, 1) on finite input, and that UtilizationAt picks the phase the
// Mod version picked, across ±0, tiny values, negatives, phase seams, and
// magnitudes at and beyond 2⁵², where every float is an integer.
func TestModfMatchesModOne(t *testing.T) {
	var profiles []Profile
	for _, k := range Kinds() {
		p, err := ProfileFor(k)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	calls := 0
	check := func(x float64) {
		if _, frac := math.Modf(x); math.Float64bits(frac) != math.Float64bits(math.Mod(x, 1)) {
			t.Fatalf("Modf(%v) fraction = %v, Mod(x, 1) = %v", x, frac, math.Mod(x, 1))
		}
		p := profiles[calls%len(profiles)]
		calls++
		if got, want := p.UtilizationAt(x), utilizationAtRef(p, x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v.UtilizationAt(%v) = %v, Mod version %v", p.Kind, x, got, want)
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 0.25, 0.5, 1, -1, 1.5, -1.5,
		1 - 0x1p-53, -(1 - 0x1p-53), 1 + 0x1p-52, 0x1p52, -0x1p52, 0x1p52 + 1, 0x1p52 - 0.5,
		0x1p53, -0x1p53 - 2, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	}
	for _, x := range edges {
		for _, y := range []float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))} {
			if !math.IsInf(y, 0) {
				check(y)
			}
		}
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 1_000_000; i++ {
		// Service positions (elapsed hours over a period) and every
		// exponent a finite float can have.
		switch i % 3 {
		case 0:
			check((rng.Float64() - 0.25) * 2000)
		case 1:
			check(math.Ldexp(rng.Float64()-0.5, rng.Intn(2098)-1074))
		default:
			check(math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52))
		}
	}
}
