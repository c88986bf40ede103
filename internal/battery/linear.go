package battery

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/telemetry"
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
// is exact bookkeeping of charge in and out — self-discharge, coulombic
// losses, the charger taper, and the cumulative counters the aging
// metrics consume — which is the fidelity level "Choosing the Right
// Battery Model for Data Center Simulations" recommends for
// warehouse-scale sweeps. Like Pack, a Linear is not safe for concurrent
// use.
type Linear struct {
	spec Spec

	capacityScale   float64
	resistanceScale float64 // carried for snapshot compatibility; unused electrically

	soc  float64
	temp units.Celsius
	deg  Degradation

	ahOut     units.AmpereHour
	ahIn      units.AmpereHour
	whOut     units.WattHour
	whIn      units.WattHour
	operating time.Duration
	cycles    float64

	telDischarge *telemetry.Counter
	telCharge    *telemetry.Counter
	telRest      *telemetry.Counter
	telCutoff    *telemetry.Counter

	// hrDt/hrVal memoize dt.Hours() for the charge-integration steps;
	// sdDt/sdFactor memoize the per-step self-discharge pow keyed by dt
	// (the only varying input); a hit is bit-identical to recomputing.
	sdDt     time.Duration
	sdFactor float64
	hrDt     time.Duration
	hrVal    float64
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
	st := defaultSettings()
	for _, opt := range opts {
		opt(&st)
	}
	*l = Linear{
		spec:            spec,
		capacityScale:   st.capScale,
		resistanceScale: st.resScale,
		soc:             st.soc,
		temp:            initialTemperature,
	}
	l.telDischarge, l.telCharge, l.telRest, l.telCutoff = st.counters()
	return nil
}

// Kind identifies the model tier.
func (l *Linear) Kind() Kind { return KindLinear }

// Spec returns the nameplate specification.
func (l *Linear) Spec() Spec { return l.spec }

// SoC returns the current state of charge in [0, 1].
func (l *Linear) SoC() float64 { return l.soc }

// Temperature returns the case temperature, which for this tier is the
// last ambient temperature stepped with.
func (l *Linear) Temperature() units.Celsius { return l.temp }

// Degradation returns the wear applied so far.
func (l *Linear) Degradation() Degradation { return l.deg }

// Health returns remaining capacity as a fraction of initial capacity.
func (l *Linear) Health() float64 { return l.deg.Health() }

// ApplyDegradation replaces the wear state, clamped as Pack clamps it.
func (l *Linear) ApplyDegradation(d Degradation) {
	d.CapacityFade = units.Clamp01(d.CapacityFade)
	d.ResistanceGrowth = units.Clamp(d.ResistanceGrowth, 0, 20)
	d.EfficiencyLoss = units.Clamp(d.EfficiencyLoss, 0, l.spec.CoulombicEfficiency-0.05)
	l.deg = d
}

// EffectiveCapacity returns the capacity currently deliverable.
func (l *Linear) EffectiveCapacity() units.AmpereHour {
	return units.AmpereHour(float64(l.spec.NominalCapacity) * l.capacityScale * l.deg.Health())
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
	if l.soc >= 1 {
		return 0
	}
	maxI := float64(l.spec.MaxChargeCurrent)
	if l.soc > 0.9 {
		maxI *= units.Clamp((1-l.soc)/0.1, 0.05, 1)
	}
	return units.Watt(float64(l.spec.NominalVoltage) * maxI)
}

// CutOff reports whether the protection threshold has tripped (empty, for
// this tier: with no voltage sag there is no under-voltage path).
func (l *Linear) CutOff() bool { return l.soc <= linearCutoffSoC }

// Discharge draws electrical power pw for duration dt at ambient amb.
func (l *Linear) Discharge(pw units.Watt, dt time.Duration, amb units.Celsius) (StepResult, error) {
	if err := checkStep(pw, dt, amb); err != nil {
		return StepResult{}, err
	}
	if pw < 0 {
		return StepResult{}, fmt.Errorf("battery: negative discharge power %v", pw)
	}
	// No thermal model in this tier: temperature tracks ambient, clamped to
	// the same physical envelope as the electrochemical heat model so any
	// state this tier produces round-trips through Restore.
	l.temp = units.Celsius(units.Clamp(float64(amb), -20, 90))
	v := l.spec.NominalVoltage
	if pw == 0 || l.CutOff() {
		l.selfDischarge(dt)
		res := StepResult{Voltage: v, CutOff: l.CutOff()}
		l.telRest.Inc()
		if res.CutOff {
			l.telCutoff.Inc()
		}
		return res, nil
	}
	if pw > l.MaxDischargePower() {
		// Beyond the C-rate cap the protection trips, as the reference
		// tier's quadratic limit does.
		l.selfDischarge(dt)
		l.telCutoff.Inc()
		return StepResult{Voltage: v, CutOff: true}, nil
	}
	i := units.Ampere(float64(pw) / float64(v))
	cap := l.EffectiveCapacity()
	dq := units.AmpereHour(float64(i) * l.hours(dt)) // units.ChargeOver, memoized hours
	avail := units.AmpereHour(l.soc * float64(cap))
	res := StepResult{Current: i, Voltage: v}
	if dq >= avail {
		// Truncate: the model empties partway through the step.
		frac := 0.0
		if dq > 0 {
			frac = float64(avail) / float64(dq)
		}
		dq = avail
		dt = time.Duration(float64(dt) * frac)
		res.CutOff = true
	}
	if float64(cap) > 0 {
		l.soc = units.Clamp01(l.soc - float64(dq)/float64(cap))
	}
	res.Charge = dq
	res.Energy = units.WattHour(float64(v) * float64(dq))
	l.ahOut += dq
	l.whOut += res.Energy
	l.cycles += float64(dq) / math.Max(float64(l.spec.NominalCapacity), 1e-9)
	l.operating += dt
	l.telDischarge.Inc()
	if res.CutOff {
		l.telCutoff.Inc()
	}
	return res, nil
}

// Charge pushes electrical power pw into the model for dt, with the same
// current cap, top-of-charge taper, and coulombic losses as the reference
// tier.
func (l *Linear) Charge(pw units.Watt, dt time.Duration, amb units.Celsius) (StepResult, error) {
	if err := checkStep(pw, dt, amb); err != nil {
		return StepResult{}, err
	}
	if pw < 0 {
		return StepResult{}, fmt.Errorf("battery: negative charge power %v", pw)
	}
	l.temp = units.Celsius(units.Clamp(float64(amb), -20, 90))
	v := l.spec.NominalVoltage
	if pw == 0 || l.soc >= 1 {
		l.selfDischarge(dt)
		l.telRest.Inc()
		return StepResult{Voltage: v}, nil
	}
	i := float64(pw) / float64(v)
	maxI := float64(l.spec.MaxChargeCurrent)
	if l.soc > 0.9 {
		maxI *= units.Clamp((1-l.soc)/0.1, 0.05, 1)
	}
	if i > maxI {
		i = maxI
	}
	eff := l.spec.CoulombicEfficiency - l.deg.EfficiencyLoss
	cap := l.EffectiveCapacity()
	dq := units.AmpereHour(i * l.hours(dt)) // units.ChargeOver, memoized hours
	need := units.AmpereHour((1 - l.soc) * float64(cap) / math.Max(eff, 1e-6))
	if dq > need {
		dq = need
	}
	if float64(cap) > 0 {
		l.soc = units.Clamp01(l.soc + float64(dq)*eff/float64(cap))
	}
	res := StepResult{
		Current: units.Ampere(-i),
		Voltage: v,
		Energy:  units.WattHour(-float64(v) * float64(dq)),
		Charge:  units.AmpereHour(-dq),
	}
	l.ahIn += dq
	l.whIn += units.WattHour(float64(v) * float64(dq))
	l.operating += dt
	l.telCharge.Inc()
	return res, nil
}

// Rest advances time with no terminal current: self-discharge only.
func (l *Linear) Rest(dt time.Duration, amb units.Celsius) error {
	if err := checkStep(0, dt, amb); err != nil {
		return err
	}
	l.temp = units.Celsius(units.Clamp(float64(amb), -20, 90))
	l.selfDischarge(dt)
	l.operating += dt
	l.telRest.Inc()
	return nil
}

// hours returns dt.Hours() memoized on dt. Callers validate dt > 0 first
// (checkStep), so the zero-valued cache never aliases a real step.
func (l *Linear) hours(dt time.Duration) float64 {
	if dt != l.hrDt {
		l.hrDt, l.hrVal = dt, dt.Hours()
	}
	return l.hrVal
}

func (l *Linear) selfDischarge(dt time.Duration) {
	if dt != l.sdDt {
		days := dt.Hours() / 24
		l.sdFactor = math.Pow(1-l.spec.SelfDischargeFraction, days)
		l.sdDt = dt
	}
	l.soc = units.Clamp01(l.soc * l.sdFactor)
}

// Counters returns a snapshot of the cumulative usage counters.
func (l *Linear) Counters() Counters {
	return Counters{
		AhOut:                l.ahOut,
		AhIn:                 l.ahIn,
		WhOut:                l.whOut,
		WhIn:                 l.whIn,
		OperatingTime:        l.operating,
		EquivalentFullCycles: l.cycles,
	}
}

// StoredEnergy estimates the energy currently stored.
func (l *Linear) StoredEnergy() units.WattHour {
	return units.WattHour(l.soc * float64(l.EffectiveCapacity()) * float64(l.spec.NominalVoltage))
}

// Snapshot captures the serializable state, in the same State shape the
// electrochemical tiers use.
func (l *Linear) Snapshot() State {
	return State{
		CapacityScale:   l.capacityScale,
		ResistanceScale: l.resistanceScale,
		SoC:             l.soc,
		Temperature:     l.temp,
		Degradation:     l.deg,
		AhOut:           l.ahOut,
		AhIn:            l.ahIn,
		WhOut:           l.whOut,
		WhIn:            l.whIn,
		Operating:       l.operating,
		Cycles:          l.cycles,
	}
}

// Restore validates the snapshot wholesale and applies it only if every
// field passes, leaving state untouched on rejection.
func (l *Linear) Restore(st State) error {
	if err := st.validate(l.spec); err != nil {
		return err
	}
	l.capacityScale = st.CapacityScale
	l.resistanceScale = st.ResistanceScale
	l.soc = st.SoC
	l.temp = st.Temperature
	l.deg = st.Degradation
	l.ahOut = st.AhOut
	l.ahIn = st.AhIn
	l.whOut = st.WhOut
	l.whIn = st.WhIn
	l.operating = st.Operating
	l.cycles = st.Cycles
	return nil
}

var _ Model = (*Linear)(nil)
var _ Model = (*Pack)(nil)
