// Package aging implements the battery-aging analysis layer of BAAT
// (DSN'15, §III): the five system-level aging metrics (NAT, CF, PC, DDT,
// DR), the mechanism-level damage model that converts operating conditions
// into irreversible degradation (§II-B), manufacturer cycle-life curves
// (Fig 10), and the weighted-aging / planned-aging formulas (Eq 6, Eq 7).
package aging

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/units"
)

// SoCRange labels the paper's four partial-cycling bands (Eq 3).
type SoCRange int

// The four SoC bands of Eq 3. RangeA is the healthiest (100–80 %),
// RangeD the most damaging (39–0 %).
const (
	RangeA SoCRange = iota + 1 // 100–80 %
	RangeB                     // 79–60 %
	RangeC                     // 59–40 %
	RangeD                     // 39–0 %
)

// String returns the paper's letter for the range.
func (r SoCRange) String() string {
	switch r {
	case RangeA:
		return "A"
	case RangeB:
		return "B"
	case RangeC:
		return "C"
	case RangeD:
		return "D"
	default:
		return fmt.Sprintf("SoCRange(%d)", int(r))
	}
}

// RangeOf classifies a state of charge into its band.
func RangeOf(soc float64) SoCRange {
	switch {
	case soc >= 0.80:
		return RangeA
	case soc >= 0.60:
		return RangeB
	case soc >= 0.40:
		return RangeC
	default:
		return RangeD
	}
}

// DeepDischargeSoC is the SoC below which the paper counts deep-discharge
// time (Eq 5) and below which the slowdown algorithm engages (Fig 9).
const DeepDischargeSoC = 0.40

// Sample is one sensor reading interval: what the battery did for Dt.
// It mirrors the power-table row of Table 2 (current, voltage, temperature,
// time) with SoC derived from voltage by the sensor layer. A node
// checkpoints the last sample its tracker accepted in this form.
type Sample struct {
	// Dt is the sampling interval.
	Dt time.Duration `json:"dt"`
	// Current is terminal current; positive discharges, negative charges.
	Current units.Ampere `json:"current"`
	// SoC is the state of charge during the interval.
	SoC float64 `json:"soc"`
	// Temperature is the battery case temperature.
	Temperature units.Celsius `json:"temperature"`
}

// Metrics is a snapshot of the five aging metrics of §III.
type Metrics struct {
	// NAT is normalized Ah throughput (Eq 1): cumulative discharge Ah over
	// the battery's nominal life-long throughput. 0 = new, 1 = the cycled
	// charge budget is spent.
	NAT float64

	// CF is the charge factor (Eq 2): cumulative charge Ah over cumulative
	// discharge Ah. Healthy partial cycling sits near 1–1.3; below that
	// sulphation/stratification dominate, above it shedding/corrosion/
	// water loss accelerate.
	CF float64

	// PC is partial cycling (Eq 3–4) with the weighting oriented so that
	// HIGHER is HEALTHIER (1.0 = all throughput in the 100–80 % band,
	// 0.25 = all throughput below 40 %). Note: Eq 4 as printed weights the
	// low band ×4 so that high values would mean *low-SoC* cycling, but
	// the paper's own evaluation (§VI-A/B) reads PC the other way — sunny
	// days have high PC and "low PC" marks prone-to-wear-out batteries.
	// We follow the evaluation semantics and document the discrepancy.
	PC float64

	// DDT is deep-discharge time (Eq 5): the fraction of wall time spent
	// below 40 % SoC.
	DDT float64

	// DR is the mean discharge rate in amperes over discharging intervals.
	DR float64

	// DRPeak is the highest discharge current observed.
	DRPeak float64

	// DRLowSoC is the mean discharge rate during deep-discharge intervals,
	// the combination §III-E singles out as most damaging.
	DRLowSoC float64
}

// Tracker accumulates the five aging metrics from a stream of samples.
// The zero value is unusable; construct with NewTracker.
type Tracker struct {
	lifetime units.AmpereHour

	// st holds every accumulated quantity in its checkpoint shape:
	// Snapshot returns it, and Restore validates a snapshot and assigns it.
	st TrackerState

	// dtLast/dtHours memoize Sample.Dt.Hours() exactly as aging.Model does:
	// the tick width is constant within a run, and the cached value is the
	// same division result bit for bit. Observe rejects Dt <= 0 before the
	// lookup, so the zero value never aliases a real sample.
	dtLast  time.Duration
	dtHours float64
}

// NewTracker creates a metric tracker for a battery whose nominal life-long
// throughput (the NAT denominator, CAP_nom in Eq 1) is lifetime.
func NewTracker(lifetime units.AmpereHour) (*Tracker, error) {
	t := new(Tracker)
	if err := NewTrackerInto(t, lifetime); err != nil {
		return nil, err
	}
	return t, nil
}

// NewTrackerInto initializes a metric tracker in place, overwriting *t.
// It exists so a node can hold its tracker by value; the resulting value
// is identical to one built by NewTracker.
func NewTrackerInto(t *Tracker, lifetime units.AmpereHour) error {
	if lifetime <= 0 {
		return fmt.Errorf("aging: lifetime throughput must be positive, got %v", lifetime)
	}
	*t = Tracker{lifetime: lifetime}
	return nil
}

// maxPlausibleCurrent bounds sample currents the tracker accepts (in
// amperes). No battery string the simulator models carries a mega-amp;
// rejecting beyond it keeps every accumulated quantity — and therefore
// every metric ratio — finite by construction, which the FuzzAgingMetrics
// target exercises with adversarial inputs.
const maxPlausibleCurrent = 1e6

// minMeasurableAh is the discharge throughput below which ratio metrics
// (CF, PC) stay zero: a nano-amp-second of cycling is sensor noise, and
// dividing by it would let CF overflow for otherwise-valid inputs.
const minMeasurableAh = 1e-12

// Observe folds one sample into the running metrics. Samples with
// non-finite or physically implausible fields are rejected so the metric
// snapshot can never become NaN or Inf.
func (t *Tracker) Observe(s Sample) error {
	if s.Dt <= 0 {
		return fmt.Errorf("aging: sample duration must be positive, got %v", s.Dt)
	}
	if c := float64(s.Current); math.IsNaN(c) || math.Abs(c) > maxPlausibleCurrent {
		return fmt.Errorf("aging: implausible sample current %v A", s.Current)
	}
	if math.IsNaN(s.SoC) || math.IsInf(s.SoC, 0) {
		return fmt.Errorf("aging: non-finite sample SoC %v", s.SoC)
	}
	if tc := float64(s.Temperature); math.IsNaN(tc) || math.IsInf(tc, 0) {
		return fmt.Errorf("aging: non-finite sample temperature %v", s.Temperature)
	}
	soc := units.Clamp01(s.SoC)
	if s.Dt != t.dtLast {
		t.dtLast, t.dtHours = s.Dt, s.Dt.Hours()
	}
	hours := t.dtHours
	t.st.Total += s.Dt
	if soc < DeepDischargeSoC {
		t.st.Deep += s.Dt
	}
	if s.Current > 0 { // discharging
		ah := float64(s.Current) * hours
		t.st.AhOut += ah
		t.st.AhByRange[RangeOf(soc)-RangeA] += ah
		t.st.DisTime += s.Dt
		if float64(s.Current) > t.st.DRPeak {
			t.st.DRPeak = float64(s.Current)
		}
		if soc < DeepDischargeSoC {
			t.st.LowTime += s.Dt
		}
	} else if s.Current < 0 { // charging
		t.st.AhIn += -float64(s.Current) * hours
	}
	return nil
}

// Metrics returns the current snapshot.
func (t *Tracker) Metrics() Metrics {
	m := Metrics{
		NAT: t.st.AhOut / float64(t.lifetime),
	}
	if t.st.AhOut > minMeasurableAh {
		m.CF = t.st.AhIn / t.st.AhOut
		// Healthy-high orientation: band A weight 4 … band D weight 1,
		// normalized by 4 so the value lives in [0.25, 1].
		m.PC = (t.st.AhByRange[0]*4 + t.st.AhByRange[1]*3 + t.st.AhByRange[2]*2 + t.st.AhByRange[3]*1) / (4 * t.st.AhOut)
	}
	if t.st.Total > 0 {
		m.DDT = float64(t.st.Deep) / float64(t.st.Total)
	}
	// Every discharge Ah is booked in AhOut, and band D is exactly the
	// deep-discharge test, so these are the mean rates over discharge time
	// and over deep-discharge time.
	if h := t.st.DisTime.Hours(); h > 0 {
		m.DR = t.st.AhOut / h
	}
	if h := t.st.LowTime.Hours(); h > 0 {
		m.DRLowSoC = t.st.AhByRange[RangeD-RangeA] / h
	}
	m.DRPeak = t.st.DRPeak
	return m
}

// Totals returns cumulative Ah flow (out, in) — the raw quantities behind
// NAT and CF, needed by the planned-aging calculator (Eq 7).
func (t *Tracker) Totals() (out, in units.AmpereHour) {
	return units.AmpereHour(t.st.AhOut), units.AmpereHour(t.st.AhIn)
}

// ElapsedTime returns the total observed wall time.
func (t *Tracker) ElapsedTime() time.Duration { return t.st.Total }

// Reset clears the accumulated state, e.g. at the start of an evaluation
// window, while keeping the lifetime denominator.
func (t *Tracker) Reset() {
	lt := t.lifetime
	*t = Tracker{lifetime: lt}
}
