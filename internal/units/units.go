// Package units provides typed physical quantities and small numeric
// helpers shared by the battery, solar, and power-network models.
//
// All quantities are float64 wrappers. They exist so that function
// signatures document themselves (a charger takes Watts, a battery stores
// AmpereHours) and so that unit conversions happen in exactly one place.
//
// The set mirrors the per-battery power table of DSN'15 Table 2 — voltage,
// current, temperature, and state of charge — plus the watt/watt-hour pair
// the solar budget figures use (§VI-A reports daily generation in kWh) and
// the ampere-hour throughput that anchors the NAT aging metric (§III).
package units

import (
	"fmt"
	"math"
	"time"
)

// Watt is electrical power in watts.
type Watt float64

// WattHour is electrical energy in watt-hours.
type WattHour float64

// Ampere is electrical current in amperes. For battery terminals, positive
// values denote discharge (current flowing out of the battery) and negative
// values denote charge, unless a field documents otherwise.
type Ampere float64

// AmpereHour is electrical charge in ampere-hours.
type AmpereHour float64

// Volt is electrical potential in volts.
type Volt float64

// Celsius is temperature in degrees Celsius.
type Celsius float64

// Hours converts a duration to fractional hours.
func Hours(d time.Duration) float64 {
	return d.Hours()
}

// EnergyOver returns the energy transferred by power p over duration d.
func EnergyOver(p Watt, d time.Duration) WattHour {
	return WattHour(float64(p) * d.Hours())
}

// ChargeOver returns the charge transferred by current i over duration d.
func ChargeOver(i Ampere, d time.Duration) AmpereHour {
	return AmpereHour(float64(i) * d.Hours())
}

// Power returns the power corresponding to current i at voltage v.
func Power(v Volt, i Ampere) Watt {
	return Watt(float64(v) * float64(i))
}

// Current returns the current drawn by power p at voltage v.
// It returns 0 if v is 0 to avoid dividing by zero.
func Current(p Watt, v Volt) Ampere {
	if v == 0 {
		return 0
	}
	return Ampere(float64(p) / float64(v))
}

// String implementations keep traces and logs readable.

func (w Watt) String() string       { return fmt.Sprintf("%.1fW", float64(w)) }
func (e WattHour) String() string   { return fmt.Sprintf("%.1fWh", float64(e)) }
func (a Ampere) String() string     { return fmt.Sprintf("%.2fA", float64(a)) }
func (q AmpereHour) String() string { return fmt.Sprintf("%.2fAh", float64(q)) }
func (v Volt) String() string       { return fmt.Sprintf("%.2fV", float64(v)) }
func (c Celsius) String() string    { return fmt.Sprintf("%.1f°C", float64(c)) }

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Clamp01 limits x to [0, 1].
func Clamp01(x float64) float64 { return Clamp(x, 0, 1) }

// Lerp linearly interpolates between a and b by t in [0, 1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

// InvLerp returns the parameter t such that Lerp(a, b, t) == x.
// It returns 0 when a == b.
func InvLerp(a, b, x float64) float64 {
	if a == b {
		return 0
	}
	return (x - a) / (b - a)
}

// Interpolator performs piecewise-linear interpolation over sorted sample
// points. It is used for open-circuit-voltage curves, cycle-life curves, and
// irradiance profiles. The zero value is not usable; construct with
// NewInterpolator.
type Interpolator struct {
	xs []float64
	ys []float64
}

// NewInterpolator builds an interpolator from parallel slices of x and y
// samples. The xs must be strictly increasing and the slices must be the
// same non-zero length.
func NewInterpolator(xs, ys []float64) (*Interpolator, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("units: interpolator needs equal, non-empty sample slices (got %d xs, %d ys)", len(xs), len(ys))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("units: interpolator xs must be strictly increasing (xs[%d]=%g <= xs[%d]=%g)", i, xs[i], i-1, xs[i-1])
		}
	}
	in := &Interpolator{xs: append([]float64(nil), xs...), ys: append([]float64(nil), ys...)}
	return in, nil
}

// MustInterpolator is NewInterpolator but panics on error. It is intended
// for package-level curve tables whose sample points are compile-time
// constants.
func MustInterpolator(xs, ys []float64) *Interpolator {
	in, err := NewInterpolator(xs, ys)
	if err != nil {
		panic(err)
	}
	return in
}

// At evaluates the curve at x, clamping to the end values outside the
// sampled range.
func (in *Interpolator) At(x float64) float64 {
	n := len(in.xs)
	if x <= in.xs[0] {
		return in.ys[0]
	}
	if x >= in.xs[n-1] {
		return in.ys[n-1]
	}
	// Binary search for the segment containing x.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if in.xs[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := InvLerp(in.xs[lo], in.xs[hi], x)
	return Lerp(in.ys[lo], in.ys[hi], t)
}

// NearlyEqual reports whether a and b agree within absolute tolerance eps.
func NearlyEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
