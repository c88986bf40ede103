package battery

import (
	"math"
	"time"

	"github.com/green-dc/baat/internal/telemetry"
	"github.com/green-dc/baat/internal/units"
)

// ledger is the charge bookkeeping every tier shares: the nameplate spec,
// the live state a checkpoint carries, the telemetry handles, and the
// coulomb counting that turns the current and terminal voltage a tier
// chose for a step into charge moved and counters advanced. Pack embeds it
// by value and adds only each tier's physics: voltage, rate limits,
// cut-off and temperature.
type ledger struct {
	spec Spec

	// st is the live state, held in its checkpoint shape: Snapshot copies
	// it out, and Restore validates a snapshot and copies it in.
	st State

	// Telemetry handles, captured once at construction so the per-step
	// cost is one nil check plus an atomic add. All are nil (and no-ops)
	// unless WithRecorder was supplied.
	telDischarge *telemetry.Counter
	telCharge    *telemetry.Counter
	telRest      *telemetry.Counter
	telCutoff    *telemetry.Counter

	// sdDt/sdFactor memoize the per-step self-discharge factor and
	// hrDt/hrVal memoize dt.Hours(), keyed by the only input that varies
	// (dt). A hit returns the identical float the cold path would compute,
	// so results are bit-for-bit unchanged. The simulator steps every
	// model with one fixed tick, so these hit on every step after the
	// first. Callers validate dt > 0 first (checkStep), so the zero-valued
	// memo never aliases a real step.
	sdDt     time.Duration
	sdFactor float64
	hrDt     time.Duration
	hrVal    float64
}

// init sets the ledger up in place for a new model of spec with opts
// applied: full charge, no wear, room temperature and zeroed counters
// unless an option says otherwise.
func (l *ledger) init(spec Spec, opts []Option) {
	s := settings{capScale: 1, resScale: 1, soc: 1}
	for _, opt := range opts {
		opt(&s)
	}
	*l = ledger{
		spec: spec,
		st: State{
			CapacityScale:   s.capScale,
			ResistanceScale: s.resScale,
			SoC:             s.soc,
			Temperature:     25,
		},
		telDischarge: s.rec.Counter(telemetry.MetricBatteryDischargeSteps),
		telCharge:    s.rec.Counter(telemetry.MetricBatteryChargeSteps),
		telRest:      s.rec.Counter(telemetry.MetricBatteryRestSteps),
		telCutoff:    s.rec.Counter(telemetry.MetricBatteryCutoffs),
	}
}

// Kind identifies the model tier.
func (l *ledger) Kind() Kind { return l.spec.Chemistry.Normalize() }

// Spec returns the nameplate specification.
func (l *ledger) Spec() Spec { return l.spec }

// SoC returns the current state of charge in [0, 1].
func (l *ledger) SoC() float64 { return l.st.SoC }

// Temperature returns the current case temperature.
func (l *ledger) Temperature() units.Celsius { return l.st.Temperature }

// Degradation returns the wear applied so far.
func (l *ledger) Degradation() Degradation { return l.st.Degradation }

// Health returns remaining capacity as a fraction of initial capacity.
func (l *ledger) Health() float64 { return l.st.Degradation.Health() }

// ApplyDegradation replaces the model's wear state. The aging model calls
// this after integrating damage for a control period. Values are clamped to
// physical ranges.
func (l *ledger) ApplyDegradation(d Degradation) {
	d.CapacityFade = units.Clamp01(d.CapacityFade)
	// A resistance beyond ~20× nameplate is a failed battery; clamping
	// keeps deeply-degraded packs numerically stable.
	d.ResistanceGrowth = units.Clamp(d.ResistanceGrowth, 0, 20)
	d.EfficiencyLoss = units.Clamp(d.EfficiencyLoss, 0, l.spec.CoulombicEfficiency-0.05)
	l.st.Degradation = d
}

// EffectiveCapacity returns the capacity currently deliverable at the
// reference (20-hour) rate, accounting for manufacturing variation and
// capacity fade.
func (l *ledger) EffectiveCapacity() units.AmpereHour {
	return units.AmpereHour(float64(l.spec.NominalCapacity) * l.st.CapacityScale * l.st.Degradation.Health())
}

// StoredEnergy estimates the energy currently stored and deliverable at the
// reference rate.
func (l *ledger) StoredEnergy() units.WattHour {
	return units.WattHour(l.st.SoC * float64(l.EffectiveCapacity()) * float64(l.spec.NominalVoltage))
}

// Counters returns the cumulative usage counters the sensor table logs
// (Table 2) and the aging metrics consume.
type Counters struct {
	AhOut         units.AmpereHour
	AhIn          units.AmpereHour
	WhOut         units.WattHour
	WhIn          units.WattHour
	OperatingTime time.Duration
	// EquivalentFullCycles is throughput-based cycle count:
	// Σ discharge Ah / nominal capacity.
	EquivalentFullCycles float64
}

// Counters returns a snapshot of the cumulative usage counters.
func (l *ledger) Counters() Counters {
	return Counters{
		AhOut:                l.st.AhOut,
		AhIn:                 l.st.AhIn,
		WhOut:                l.st.WhOut,
		WhIn:                 l.st.WhIn,
		OperatingTime:        l.st.Operating,
		EquivalentFullCycles: l.st.Cycles,
	}
}

// Snapshot captures the model's state.
func (l *ledger) Snapshot() State { return l.st }

// Restore overwrites the model's state from a snapshot. The state is
// validated against the model's spec first and rejected wholesale on any
// out-of-range or non-finite field, so a corrupt checkpoint fails loudly
// instead of producing silent physics.
func (l *ledger) Restore(st State) error {
	if err := st.validate(l.spec); err != nil {
		return err
	}
	l.st = st
	return nil
}

// setTemperature moves the case temperature to t, clamped to a physical
// envelope, so an extremely degraded pack cannot destabilize the thermal
// model and any state a tier produces round-trips through Restore.
func (l *ledger) setTemperature(t float64) {
	l.st.Temperature = units.Celsius(units.Clamp(t, -20, 90))
}

// chargeLimit is the charger's current limit at the present state of
// charge: MaxChargeCurrent, tapering linearly above 90 % to a 5 % trickle.
func (l *ledger) chargeLimit() float64 {
	maxI := float64(l.spec.MaxChargeCurrent)
	if l.st.SoC > 0.9 {
		maxI *= units.Clamp((1-l.st.SoC)/0.1, 0.05, 1)
	}
	return maxI
}

// hours returns dt.Hours() memoized on dt.
func (l *ledger) hours(dt time.Duration) float64 {
	if dt != l.hrDt {
		l.hrDt, l.hrVal = dt, dt.Hours()
	}
	return l.hrVal
}

// selfDischarge applies the charge lost at rest over dt. The memo miss is
// a separate call so that the hit, taken on every rest step of a
// fixed-tick run, inlines into the tier's step. The product needs no
// clamp: the state of charge is in [0, 1] and the factor in (0, 1].
func (l *ledger) selfDischarge(dt time.Duration) {
	if dt != l.sdDt {
		l.setSelfDischarge(dt)
	}
	l.st.SoC *= l.sdFactor
}

func (l *ledger) setSelfDischarge(dt time.Duration) {
	days := dt.Hours() / 24
	l.sdFactor = math.Pow(1-l.spec.SelfDischargeFraction, days)
	l.sdDt = dt
}

// idle books a step of dt that moved no charge at terminal voltage v, as
// a rest, counting a cut-off trip when the tier reports one.
func (l *ledger) idle(v units.Volt, cutOff bool, dt time.Duration) StepResult {
	l.rested(dt)
	if cutOff {
		l.telCutoff.Inc()
	}
	return StepResult{Voltage: v, CutOff: cutOff}
}

// trip books a discharge of dt the tier's protection refused at terminal
// voltage v: no charge moves and the cut-off trips.
func (l *ledger) trip(v units.Volt, dt time.Duration) StepResult {
	l.st.Operating += dt
	l.telCutoff.Inc()
	return StepResult{Voltage: v, CutOff: true}
}

// discharge books a discharge at current i and terminal voltage v against
// capacity cap for dt: the charge drawn, truncated where the model empties
// partway through the step (which trips the cut-off), the counters and the
// telemetry. It returns the step and how long current actually flowed.
func (l *ledger) discharge(i units.Ampere, v units.Volt, cap units.AmpereHour, dt time.Duration) (StepResult, time.Duration) {
	dq := units.AmpereHour(float64(i) * l.hours(dt)) // units.ChargeOver, memoized hours
	avail := units.AmpereHour(l.st.SoC * float64(cap))
	cutOff := false
	if dq >= avail {
		frac := 0.0
		if dq > 0 {
			frac = float64(avail) / float64(dq)
		}
		dq = avail
		dt = time.Duration(float64(dt) * frac)
		cutOff = true
	}
	if float64(cap) > 0 {
		l.st.SoC = units.Clamp01(l.st.SoC - float64(dq)/float64(cap))
	}
	// Energy at the terminals is v × i × hours = v × dq.
	l.st.AhOut += dq
	l.st.WhOut += units.WattHour(float64(v) * float64(dq))
	l.st.Cycles += float64(dq) / max(float64(l.spec.NominalCapacity), 1e-9)
	l.st.Operating += dt
	l.telDischarge.Inc()
	if cutOff {
		l.telCutoff.Inc()
	}
	return StepResult{Current: i, Voltage: v, Charge: dq, CutOff: cutOff}, dt
}

// charge books a charge at current i, already within chargeLimit, and
// terminal voltage v for dt: the charge stored after coulombic losses,
// stopping at full, the counters and the telemetry.
func (l *ledger) charge(i float64, v units.Volt, dt time.Duration) StepResult {
	eff := l.spec.CoulombicEfficiency - l.st.Degradation.EfficiencyLoss
	cap := l.EffectiveCapacity()
	dq := units.AmpereHour(i * l.hours(dt)) // units.ChargeOver, memoized hours
	need := units.AmpereHour((1 - l.st.SoC) * float64(cap) / max(eff, 1e-6))
	if dq > need {
		dq = need
	}
	if float64(cap) > 0 {
		l.st.SoC = units.Clamp01(l.st.SoC + float64(dq)*eff/float64(cap))
	}
	l.st.AhIn += dq
	l.st.WhIn += units.WattHour(float64(v) * float64(dq))
	l.st.Operating += dt
	l.telCharge.Inc()
	return StepResult{Current: units.Ampere(-i), Voltage: v, Charge: -dq}
}

// rested books a Rest step's time and telemetry; the tier has already
// applied its rest physics.
func (l *ledger) rested(dt time.Duration) {
	l.st.Operating += dt
	l.telRest.Inc()
}
