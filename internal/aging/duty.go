package aging

import (
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/units"
)

// dutyAmbient is the ambient temperature every duty cycle runs at: the
// room the paper's prototype unit sat in.
const dutyAmbient units.Celsius = 25

// Leg is one stretch of a duty cycle: Steps steps of Dt each at power W.
// W > 0 discharges, W < 0 charges at −W, and W == 0 rests.
type Leg struct {
	W     units.Watt
	Dt    time.Duration
	Steps int
}

// DutyCycle is one day of a lone pack's usage, leg by leg. It drives the
// experiments that step a single battery outside the simulator.
type DutyCycle []Leg

// StudyCycle is the day of the paper's six-month measurement study
// (§II-B, Figs 3–5) that DefaultModelConfig is calibrated on: a 12 V 35 Ah
// unit bridges a solar shortfall with four hours at 60 W (~20 Ah at 5 A,
// ≈57 % DoD), recharges from solar for six hours, and rests 14 hours.
var StudyCycle = DutyCycle{{60, time.Hour, 4}, {-60, time.Hour, 6}, {0, 14 * time.Hour, 1}}

// Drive steps pack through one pass of the cycle, feeding obs (a Model or
// a Tracker) one Sample after every step. A rest feeds zero current.
// Degradation is left to the caller, which applies it once per day.
func (c DutyCycle) Drive(pack *battery.Pack, obs interface{ Observe(Sample) error }) error {
	for _, leg := range c {
		for i := 0; i < leg.Steps; i++ {
			var res battery.StepResult
			var err error
			switch {
			case leg.W > 0:
				res, err = pack.Discharge(leg.W, leg.Dt, dutyAmbient)
			case leg.W < 0:
				res, err = pack.Charge(-leg.W, leg.Dt, dutyAmbient)
			default:
				err = pack.Rest(leg.Dt, dutyAmbient)
			}
			if err != nil {
				return err
			}
			if err := obs.Observe(Sample{Dt: leg.Dt, Current: res.Current, SoC: pack.SoC(), Temperature: pack.Temperature()}); err != nil {
				return err
			}
		}
	}
	return nil
}
