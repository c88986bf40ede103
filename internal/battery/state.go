package battery

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/units"
)

// State is the serializable state of a battery model: live electrical
// state, the fixed manufacturing variation, applied wear, and the
// cumulative usage counters. The Spec is construction-time input, not
// state — a snapshot restores only onto a model built from the same spec.
type State struct {
	CapacityScale   float64          `json:"capacity_scale"`
	ResistanceScale float64          `json:"resistance_scale"`
	SoC             float64          `json:"soc"`
	Temperature     units.Celsius    `json:"temperature"`
	Degradation     Degradation      `json:"degradation"`
	AhOut           units.AmpereHour `json:"ah_out"`
	AhIn            units.AmpereHour `json:"ah_in"`
	WhOut           units.WattHour   `json:"wh_out"`
	WhIn            units.WattHour   `json:"wh_in"`
	Operating       time.Duration    `json:"operating"`
	Cycles          float64          `json:"cycles"`
}

func (st State) validate(spec Spec) error {
	inRange := func(name string, v, lo, hi float64) error {
		if math.IsNaN(v) || v < lo || v > hi {
			return fmt.Errorf("battery: restore: %s must be in [%v, %v], got %v", name, lo, hi, v)
		}
		return nil
	}
	nonNeg := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("battery: restore: %s must be finite and non-negative, got %v", name, v)
		}
		return nil
	}
	checks := []error{
		// Manufacturing variation is drawn clamped to [0.7, 1.3]; accept a
		// wider but still physical envelope.
		inRange("capacity scale", st.CapacityScale, 0.1, 10),
		inRange("resistance scale", st.ResistanceScale, 0.1, 10),
		inRange("soc", st.SoC, 0, 1),
		inRange("temperature", float64(st.Temperature), -273, 200),
		inRange("capacity fade", st.Degradation.CapacityFade, 0, 1),
		inRange("resistance growth", st.Degradation.ResistanceGrowth, 0, 20),
		inRange("efficiency loss", st.Degradation.EfficiencyLoss, 0, spec.CoulombicEfficiency-0.05),
		nonNeg("ah out", float64(st.AhOut)),
		nonNeg("ah in", float64(st.AhIn)),
		nonNeg("wh out", float64(st.WhOut)),
		nonNeg("wh in", float64(st.WhIn)),
		nonNeg("cycles", st.Cycles),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	if st.Operating < 0 {
		return fmt.Errorf("battery: restore: operating time must be non-negative, got %v", st.Operating)
	}
	return nil
}
