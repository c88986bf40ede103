package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEnergyOver(t *testing.T) {
	tests := []struct {
		name string
		p    Watt
		d    time.Duration
		want WattHour
	}{
		{"one watt one hour", 1, time.Hour, 1},
		{"hundred watts half hour", 100, 30 * time.Minute, 50},
		{"zero power", 0, time.Hour, 0},
		{"one minute", 60, time.Minute, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := EnergyOver(tt.p, tt.d); !NearlyEqual(float64(got), float64(tt.want), 1e-12) {
				t.Errorf("EnergyOver(%v, %v) = %v, want %v", tt.p, tt.d, got, tt.want)
			}
		})
	}
}

func TestChargeOver(t *testing.T) {
	got := ChargeOver(2, 90*time.Minute)
	if !NearlyEqual(float64(got), 3, 1e-12) {
		t.Errorf("ChargeOver(2A, 90m) = %v, want 3Ah", got)
	}
}

func TestPowerCurrentRoundTrip(t *testing.T) {
	p := Power(12, 3)
	if p != 36 {
		t.Fatalf("Power(12V, 3A) = %v, want 36W", p)
	}
	i := Current(p, 12)
	if !NearlyEqual(float64(i), 3, 1e-12) {
		t.Errorf("Current(36W, 12V) = %v, want 3A", i)
	}
}

func TestCurrentZeroVoltage(t *testing.T) {
	if got := Current(100, 0); got != 0 {
		t.Errorf("Current at 0V = %v, want 0", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v, %v, %v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestClampProperty(t *testing.T) {
	f := func(x float64) bool {
		c := Clamp01(x)
		return c >= 0 && c <= 1 && (x < 0 || x > 1 || c == x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerpInvLerpInverse(t *testing.T) {
	f := func(t0 float64) bool {
		tt := Clamp01(math.Abs(math.Mod(t0, 1)))
		x := Lerp(3, 7, tt)
		return NearlyEqual(InvLerp(3, 7, x), tt, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvLerpDegenerate(t *testing.T) {
	if got := InvLerp(2, 2, 5); got != 0 {
		t.Errorf("InvLerp on degenerate interval = %v, want 0", got)
	}
}

func TestNewInterpolatorErrors(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		ys   []float64
	}{
		{"empty", nil, nil},
		{"mismatched", []float64{1, 2}, []float64{1}},
		{"non increasing", []float64{1, 1}, []float64{0, 1}},
		{"decreasing", []float64{2, 1}, []float64{0, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewInterpolator(tt.xs, tt.ys); err == nil {
				t.Error("NewInterpolator succeeded, want error")
			}
		})
	}
}

func TestInterpolatorAt(t *testing.T) {
	in := MustInterpolator([]float64{0, 1, 3}, []float64{10, 20, 0})
	tests := []struct {
		x, want float64
	}{
		{-5, 10},  // clamped low
		{0, 10},   // exact endpoint
		{0.5, 15}, // mid first segment
		{1, 20},   // interior knot
		{2, 10},   // mid second segment
		{3, 0},    // exact endpoint
		{99, 0},   // clamped high
	}
	for _, tt := range tests {
		if got := in.At(tt.x); !NearlyEqual(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestInterpolatorMonotoneDomainProperty(t *testing.T) {
	in := MustInterpolator([]float64{0, 10, 20, 40}, []float64{1, 0.8, 0.5, 0.1})
	if lo, hi := in.xs[0], in.xs[len(in.xs)-1]; lo != 0 || hi != 40 {
		t.Fatalf("sampled range = (%v, %v), want (0, 40)", lo, hi)
	}
	// Monotone sample points must yield a monotone interpolant.
	f := func(a, b float64) bool {
		xa := Clamp(math.Abs(a), 0, 40)
		xb := Clamp(math.Abs(b), 0, 40)
		if xa > xb {
			xa, xb = xb, xa
		}
		return in.At(xa) >= in.At(xb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMustInterpolatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustInterpolator did not panic on bad input")
		}
	}()
	MustInterpolator([]float64{1}, nil)
}

func TestStringFormats(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{Watt(12.34).String(), "12.3W"},
		{WattHour(5).String(), "5.0Wh"},
		{Ampere(1.234).String(), "1.23A"},
		{AmpereHour(35).String(), "35.00Ah"},
		{Volt(12.5).String(), "12.50V"},
		{Celsius(25).String(), "25.0°C"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}
