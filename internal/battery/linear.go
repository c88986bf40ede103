package battery

import (
	"fmt"
	"time"

	"github.com/green-dc/baat/internal/units"
)

// linearDischargeCRate caps the linear tier's discharge at 2C. The
// electrochemical tiers derive their power limit from the IR drop; the
// linear tier has no voltage sag, so a fixed C-rate stands in for the
// protection circuit. 2C comfortably exceeds any draw the simulator's
// server loads produce, so the cap only matters for adversarial inputs.
const linearDischargeCRate = 2

// linearCutoffSoC mirrors the electrochemical empty threshold: below 2 %
// charge the protection disconnect trips.
const linearCutoffSoC = 0.02

// Linear is the fast coulomb-counting tier: terminal voltage is constant
// at nominal, capacity is rate-independent (no Peukert effect), and the
// case temperature simply tracks ambient (no thermal model). What remains
// is the charge bookkeeping every tier shares through the embedded ledger
// — self-discharge, coulombic losses, the charger taper, and the
// cumulative counters the aging metrics consume — which is the fidelity
// level "Choosing the Right Battery Model for Data Center Simulations"
// recommends for warehouse-scale sweeps. Like Pack, a Linear is not safe
// for concurrent use.
type Linear struct {
	ledger
}

// NewLinear constructs a Linear from spec.
func NewLinear(spec Spec, opts ...Option) (*Linear, error) {
	l := new(Linear)
	if err := NewLinearInto(l, spec, opts...); err != nil {
		return nil, err
	}
	return l, nil
}

// NewLinearInto initializes a Linear from spec in place, overwriting *l,
// so a fleet can lay linear models out in one contiguous slice.
func NewLinearInto(l *Linear, spec Spec, opts ...Option) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.Chemistry.Normalize() != KindLinear {
		return fmt.Errorf("battery: spec chemistry %q is not the linear tier (use LinearSpec)", spec.Chemistry)
	}
	l.ledger.init(spec, opts)
	return nil
}

// OpenCircuitVoltage is the constant nominal voltage.
func (l *Linear) OpenCircuitVoltage() units.Volt { return l.spec.NominalVoltage }

// TerminalVoltage is the constant nominal voltage: this tier models no IR
// drop.
func (l *Linear) TerminalVoltage(units.Ampere) units.Volt { return l.spec.NominalVoltage }

// MaxDischargePower is the tier's fixed C-rate cap times the effective
// capacity — the stand-in for the IR-drop-derived P_threshold.
func (l *Linear) MaxDischargePower() units.Watt {
	return units.Watt(float64(l.spec.NominalVoltage) * linearDischargeCRate * float64(l.EffectiveCapacity()))
}

// MaxChargePower returns the battery-side power the charger could push in
// this instant, with the same top-of-charge taper as the reference tier.
func (l *Linear) MaxChargePower() units.Watt {
	if l.st.SoC >= 1 {
		return 0
	}
	return units.Watt(float64(l.spec.NominalVoltage) * l.chargeLimit())
}

// CutOff reports whether the protection threshold has tripped (empty, for
// this tier: with no voltage sag there is no under-voltage path).
func (l *Linear) CutOff() bool { return l.st.SoC <= linearCutoffSoC }

// Discharge draws electrical power pw for duration dt at ambient amb.
func (l *Linear) Discharge(pw units.Watt, dt time.Duration, amb units.Celsius) (StepResult, error) {
	if err := checkStep("discharge", pw, dt, amb); err != nil {
		return StepResult{}, err
	}
	// No thermal model in this tier: temperature tracks ambient.
	l.setTemperature(float64(amb))
	v := l.spec.NominalVoltage
	if pw == 0 || l.CutOff() {
		l.selfDischarge(dt)
		return l.idle(v, l.CutOff(), dt), nil
	}
	if pw > l.MaxDischargePower() {
		// Beyond the C-rate cap the protection trips, as the reference
		// tier's quadratic limit does.
		l.selfDischarge(dt)
		return l.trip(v, dt), nil
	}
	i := units.Ampere(float64(pw) / float64(v))
	res, _ := l.discharge(i, v, l.EffectiveCapacity(), dt)
	return res, nil
}

// Charge pushes electrical power pw into the model for dt, with the same
// current cap, top-of-charge taper, and coulombic losses as the reference
// tier.
func (l *Linear) Charge(pw units.Watt, dt time.Duration, amb units.Celsius) (StepResult, error) {
	if err := checkStep("charge", pw, dt, amb); err != nil {
		return StepResult{}, err
	}
	l.setTemperature(float64(amb))
	v := l.spec.NominalVoltage
	if pw == 0 || l.st.SoC >= 1 {
		l.selfDischarge(dt)
		return l.idle(v, false, dt), nil
	}
	i := float64(pw) / float64(v)
	if maxI := l.chargeLimit(); i > maxI {
		i = maxI
	}
	return l.charge(i, v, dt), nil
}

// Rest advances time with no terminal current: self-discharge only.
func (l *Linear) Rest(dt time.Duration, amb units.Celsius) error {
	if err := checkStep("rest", 0, dt, amb); err != nil {
		return err
	}
	l.setTemperature(float64(amb))
	l.selfDischarge(dt)
	l.rested(dt)
	return nil
}

var _ Model = (*Linear)(nil)
var _ Model = (*Pack)(nil)
