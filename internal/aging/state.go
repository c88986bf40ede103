package aging

import (
	"fmt"
	"math"
	"time"
)

// TrackerState is the serializable state of a Tracker: every accumulated
// quantity behind the five metrics. A Tracker holds it live, so Snapshot
// returns it as is. The lifetime denominator is construction-time input
// and is revalidated on restore.
type TrackerState struct {
	AhOut     float64    `json:"ah_out"`
	AhIn      float64    `json:"ah_in"`
	AhByRange [4]float64 `json:"ah_by_range"` // discharge Ah per SoC band (A..D)

	Total   time.Duration `json:"total"`
	Deep    time.Duration `json:"deep"`
	DisTime time.Duration `json:"dis_time"`
	LowTime time.Duration `json:"low_time"`

	DRPeak float64 `json:"dr_peak"`
}

// Snapshot captures the tracker's accumulated state.
func (t *Tracker) Snapshot() TrackerState { return t.st }

// Restore overwrites the tracker's accumulated state from a snapshot,
// keeping its lifetime denominator. Non-finite or negative quantities are
// rejected wholesale — the tracker guarantees finite metrics by
// construction, and a restore must not be a way around that. So is a
// state no sample sequence can reach, whose metrics would be nonsense:
// low-SoC discharge time must fit in both the discharge and the deep
// time, the band Ah must add up to the discharge Ah, and neither the
// discharge Ah nor band D's Ah may exceed the peak rate held over its
// time. The last two compare float sums taken in different orders, so
// they allow a relative restoreSlack.
func (t *Tracker) Restore(st TrackerState) error {
	bad := func(name string, v float64) error {
		return fmt.Errorf("aging: restore tracker: %s must be finite and non-negative, got %v", name, v)
	}
	for _, q := range [...]struct {
		name string
		v    float64
	}{{"ah out", st.AhOut}, {"ah in", st.AhIn}, {"dr peak", st.DRPeak}} {
		if !nonNeg(q.v) {
			return bad(q.name, q.v)
		}
	}
	for i, ah := range st.AhByRange {
		if !nonNeg(ah) {
			return bad(fmt.Sprintf("ah by range[%d]", i), ah)
		}
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{{"total", st.Total}, {"deep", st.Deep}, {"dis time", st.DisTime}, {"low time", st.LowTime}} {
		if d.v < 0 {
			return fmt.Errorf("aging: restore tracker: %s must be non-negative, got %v", d.name, d.v)
		}
	}
	if st.Deep > st.Total || st.DisTime > st.Total || st.LowTime > st.Total {
		return fmt.Errorf("aging: restore tracker: sub-durations exceed total observed time")
	}
	if st.LowTime > st.DisTime || st.LowTime > st.Deep {
		return fmt.Errorf("aging: restore tracker: low time %v exceeds dis time %v or deep %v",
			st.LowTime, st.DisTime, st.Deep)
	}
	var banded float64
	for _, ah := range st.AhByRange {
		banded += ah
	}
	if !(math.Abs(banded-st.AhOut) <= restoreSlack*st.AhOut) {
		return fmt.Errorf("aging: restore tracker: ah by range sums to %v, want ah out %v", banded, st.AhOut)
	}
	if st.AhOut > st.DRPeak*st.DisTime.Hours()*(1+restoreSlack) {
		return fmt.Errorf("aging: restore tracker: ah out %v exceeds dr peak %v A over dis time %v",
			st.AhOut, st.DRPeak, st.DisTime)
	}
	if d := st.AhByRange[RangeD-RangeA]; d > st.DRPeak*st.LowTime.Hours()*(1+restoreSlack) {
		return fmt.Errorf("aging: restore tracker: ah by range[%d] %v exceeds dr peak %v A over low time %v",
			RangeD-RangeA, d, st.DRPeak, st.LowTime)
	}
	t.st = st
	return nil
}

// restoreSlack is the relative rounding Restore allows when it checks
// accumulated float sums against each other. A tracker's sums differ only
// in summation order, by about one ULP per sample, so 1e-6 holds for any
// run shorter than ~10⁹ samples.
const restoreSlack = 1e-6

// nonNeg reports whether a restored accumulator is finite and
// non-negative. Restore names the field only when this fails, so a good
// snapshot restores without formatting a string.
func nonNeg(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// ModelState is the serializable state of a damage Model: accumulated
// per-mechanism stress, the rendered damage totals, and the
// stratification driver. A Model holds it live, so Snapshot returns it as
// is. Rate constants and the capacity normalizer are construction-time
// input.
type ModelState struct {
	ByMechanism [NumMechanisms]float64 `json:"by_mechanism"` // raw accumulated stress per mechanism
	ResGrowth   float64                `json:"res_growth"`
	CapFade     float64                `json:"cap_fade"`
	EffLoss     float64                `json:"eff_loss"`
	SinceFull   float64                `json:"since_full"` // Ah discharged since the last full recharge
	// Hours is the accelerated-time clock behind the LFP √t calendar
	// fade; zero (and omitted) for the chemistries that don't use it, so
	// pre-existing lead-acid checkpoints parse unchanged.
	Hours float64 `json:"hours,omitempty"`
}

// Snapshot captures the model's accumulated damage.
func (m *Model) Snapshot() ModelState { return m.st }

// Restore overwrites the model's accumulated damage from a snapshot.
// Damage is cumulative and irreversible, so every field must be finite
// and non-negative; anything else is a corrupt checkpoint.
func (m *Model) Restore(st ModelState) error {
	bad := func(name string, v float64) error {
		return fmt.Errorf("aging: restore model: %s must be finite and non-negative, got %v", name, v)
	}
	for _, q := range [...]struct {
		name string
		v    float64
	}{
		{"res growth", st.ResGrowth},
		{"cap fade", st.CapFade},
		{"eff loss", st.EffLoss},
		{"since full", st.SinceFull},
		{"hours", st.Hours},
	} {
		if !nonNeg(q.v) {
			return bad(q.name, q.v)
		}
	}
	for i, v := range st.ByMechanism {
		if !nonNeg(v) {
			return bad(Mechanism(i+1).String()+" stress", v)
		}
	}
	m.st = st
	return nil
}
