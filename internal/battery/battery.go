// Package battery models valve-regulated lead-acid (VRLA) battery packs of
// the kind the BAAT prototype instruments: 12 V / 35 Ah sealed units attached
// one-per-server (DSN'15, §V-A).
//
// The model is electrical only. It tracks state of charge, terminal voltage
// (open-circuit voltage minus/plus the IR drop), effective capacity under the
// Peukert effect, coulombic losses while charging, self-discharge, and a
// lumped thermal model driven by I²R heating. Aging is *not* computed here:
// the aging package observes usage and feeds degradation back through
// ApplyDegradation, which is exactly the separation the paper draws between
// the sensor layer (electrical observables) and the BAAT controller (aging
// assessment).
package battery

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/telemetry"
	"github.com/green-dc/baat/internal/units"
)

// Spec describes a battery product as the manufacturer rates it. The zero
// value is not usable; start from DefaultSpec.
type Spec struct {
	// Chemistry selects the model tier simulating this product (see Kind).
	// The zero value means the reference lead-acid tier, so specs written
	// before model selection existed keep their meaning — and, because the
	// field is omitted from JSON when empty, their checkpoint config
	// hashes. Any non-default tier changes the marshaled spec and thereby
	// the hash, which is what makes a wrong-model resume fail loudly.
	Chemistry Kind `json:",omitempty"`

	// NominalVoltage is the rated terminal voltage (12 V for the prototype
	// units).
	NominalVoltage units.Volt

	// NominalCapacity is the rated 20-hour capacity (35 Ah for the
	// prototype units).
	NominalCapacity units.AmpereHour

	// PeukertExponent captures capacity shrinkage at high discharge rates.
	// Lead-acid batteries are typically 1.1–1.3.
	PeukertExponent float64

	// InternalResistance is the new-battery internal resistance in ohms.
	InternalResistance float64

	// CoulombicEfficiency is the fraction of charge current that is stored
	// while charging a new battery (gassing wastes the rest).
	CoulombicEfficiency float64

	// SelfDischargeFraction is the fraction of stored charge lost per day
	// at rest.
	SelfDischargeFraction float64

	// CutoffVoltage is the terminal voltage below which the battery is
	// disconnected to protect it (§II-B: under-voltage batteries cannot
	// sustain high-current draw and are cut out).
	CutoffVoltage units.Volt

	// MaxChargeCurrent limits the charger (typically C/4 for VRLA).
	MaxChargeCurrent units.Ampere

	// LifetimeThroughput is the nominal life-long Ah output CAP_nom used as
	// the denominator of normalized Ah throughput (Eq 1): the aggregate
	// charge a battery can cycle before wear-out, which prior work treats
	// as approximately constant.
	LifetimeThroughput units.AmpereHour

	// ThermalCapacity is the lumped heat capacity in J/°C.
	ThermalCapacity float64

	// ThermalResistance is the case-to-ambient thermal resistance in °C/W.
	ThermalResistance float64
}

// DefaultSpec returns the specification of the prototype's battery units:
// 12 V 35 Ah sealed lead-acid (Fig 11). LifetimeThroughput corresponds to
// roughly 200 equivalent full cycles at reference conditions, a conservative
// figure for inexpensive VRLA units cycled daily.
func DefaultSpec() Spec {
	return Spec{
		NominalVoltage:        12,
		NominalCapacity:       35,
		PeukertExponent:       1.15,
		InternalResistance:    0.022,
		CoulombicEfficiency:   0.92,
		SelfDischargeFraction: 0.002,
		CutoffVoltage:         10.5,
		MaxChargeCurrent:      8.75, // C/4
		LifetimeThroughput:    7000, // ≈200 full cycles × 35 Ah
		ThermalCapacity:       9000, // ~12 kg × 750 J/(kg·°C)
		ThermalResistance:     2.0,
	}
}

// Parallel returns the spec of n identical units wired in parallel, as in
// the prototype's two-packs-per-server arrangement (twelve 12 V 35 Ah units
// behind six servers, Fig 11): capacity, current limits, lifetime
// throughput, and thermal mass scale with n while resistance divides by n.
// Values of n below 1 are treated as 1.
func Parallel(s Spec, n int) Spec {
	if n < 1 {
		n = 1
	}
	f := float64(n)
	s.NominalCapacity = units.AmpereHour(float64(s.NominalCapacity) * f)
	s.MaxChargeCurrent = units.Ampere(float64(s.MaxChargeCurrent) * f)
	s.LifetimeThroughput = units.AmpereHour(float64(s.LifetimeThroughput) * f)
	s.ThermalCapacity *= f
	s.InternalResistance /= f
	return s
}

// Validate reports whether the spec is physically meaningful.
func (s Spec) Validate() error {
	switch {
	case !s.Chemistry.Valid():
		return fmt.Errorf("battery: unknown chemistry %q", s.Chemistry)
	case s.NominalVoltage <= 0:
		return errors.New("battery: nominal voltage must be positive")
	case s.NominalCapacity <= 0:
		return errors.New("battery: nominal capacity must be positive")
	case s.PeukertExponent < 1:
		return errors.New("battery: Peukert exponent must be >= 1")
	case s.InternalResistance <= 0:
		return errors.New("battery: internal resistance must be positive")
	case s.CoulombicEfficiency <= 0 || s.CoulombicEfficiency > 1:
		return errors.New("battery: coulombic efficiency must be in (0, 1]")
	case s.SelfDischargeFraction < 0 || s.SelfDischargeFraction >= 1:
		return errors.New("battery: self-discharge fraction must be in [0, 1)")
	case s.CutoffVoltage <= 0 || s.CutoffVoltage >= s.NominalVoltage:
		return errors.New("battery: cutoff voltage must be in (0, nominal)")
	case s.MaxChargeCurrent <= 0:
		return errors.New("battery: max charge current must be positive")
	case s.LifetimeThroughput <= 0:
		return errors.New("battery: lifetime throughput must be positive")
	case s.ThermalCapacity <= 0 || s.ThermalResistance <= 0:
		return errors.New("battery: thermal parameters must be positive")
	}
	return nil
}

// ocvCurve maps state of charge to open-circuit voltage for a nominal 12 V
// lead-acid battery at 25 °C. Points follow published VRLA rest-voltage
// tables. Voltages scale with NominalVoltage/12 for other pack voltages.
var ocvCurve = units.MustInterpolator(
	[]float64{0.00, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.00},
	[]float64{11.30, 11.58, 11.75, 11.90, 12.06, 12.20, 12.32, 12.42, 12.50, 12.60, 12.73},
)

// Degradation is the cumulative, irreversible wear the aging model has
// assessed for a battery. Fractions are in [0, 1); 0 means a new battery.
type Degradation struct {
	// CapacityFade is the fraction of nominal capacity permanently lost
	// (sulphation, active-mass shedding, stratification).
	CapacityFade float64

	// ResistanceGrowth is the fractional growth of internal resistance
	// (grid corrosion): R = R0 × (1 + ResistanceGrowth).
	ResistanceGrowth float64

	// EfficiencyLoss is the absolute reduction of coulombic efficiency
	// (gassing and water loss).
	EfficiencyLoss float64
}

// Health converts degradation to the paper's health figure: the fraction of
// initial capacity still deliverable. A unit is at end-of-life when Health
// falls below 0.8 (§II-B).
func (d Degradation) Health() float64 {
	return units.Clamp01(1 - d.CapacityFade)
}

// EndOfLifeHealth is the capacity fraction below which a battery is no
// longer suitable for mission-critical backup (§II-B).
const EndOfLifeHealth = 0.8

// Pack is the electrochemical tier (lead-acid and LFP): a single battery
// unit whose terminal voltage follows its chemistry's OCV curve and IR
// drop, whose capacity shrinks at high rates (Peukert), and whose case
// temperature follows a lumped thermal model. The charge bookkeeping it
// shares with every tier lives in the embedded ledger. Pack is not safe
// for concurrent use; in the simulator each node owns its pack.
type Pack struct {
	ledger

	// curve and curveRef are the chemistry's OCV table and the pack
	// voltage it is tabulated at, both fixed at construction.
	curve    *units.Interpolator
	curveRef float64

	// thermalTau is ThermalCapacity×ThermalResistance, hoisted at
	// construction. heatDt/heatAlpha memoize the thermal step's
	// transcendental on the ledger's bit-identical terms (keyed by dt).
	thermalTau float64
	heatDt     time.Duration
	heatAlpha  float64

	// ocvSoC/ocvVal memoize the open-circuit voltage keyed by the state of
	// charge — the only varying input: the curve, nominal voltage, and
	// reference scale are fixed at construction, and degradation does not
	// enter the OCV map. One tick reads the OCV several times at the same
	// SoC (power limits, the step itself, the sensor row), so most lookups
	// skip the curve interpolation.
	ocvSoC float64
	ocvVal units.Volt
	ocvOk  bool
}

// settings collects the construction-time options shared by every model
// tier, so one Option type configures Pack and Linear alike.
type settings struct {
	capScale float64
	resScale float64
	soc      float64
	rec      *telemetry.Recorder
}

// Option customizes a battery model at construction.
type Option func(*settings)

// WithInitialSoC sets the starting state of charge (default 1.0).
func WithInitialSoC(soc float64) Option {
	return func(s *settings) { s.soc = units.Clamp01(soc) }
}

// WithManufacturingVariation applies fixed per-unit deviation from the
// nameplate: capScale multiplies capacity, resScale multiplies resistance.
// Imperfect manufacturing is one of the paper's two causes of aging
// variation (§IV-B-1).
func WithManufacturingVariation(capScale, resScale float64) Option {
	return func(s *settings) {
		if capScale > 0 {
			s.capScale = capScale
		}
		if resScale > 0 {
			s.resScale = resScale
		}
	}
}

// WithRecorder instruments the model's step loop: discharge, charge, and
// rest step counts plus protection-cutoff trips are recorded under the
// canonical battery metric names. A nil recorder leaves the model exactly
// as un-instrumented (the handles stay nil no-ops).
func WithRecorder(rec *telemetry.Recorder) Option {
	return func(s *settings) { s.rec = rec }
}

// New constructs a Pack from spec.
func New(spec Spec, opts ...Option) (*Pack, error) {
	p := new(Pack)
	if err := NewInto(p, spec, opts...); err != nil {
		return nil, err
	}
	return p, nil
}

// NewInto initializes a Pack from spec in place, overwriting *p. It
// exists so a fleet can lay packs out in one contiguous slice instead of
// allocating each behind its own pointer; the resulting value is
// identical to one built by New.
func NewInto(p *Pack, spec Spec, opts ...Option) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	kind := spec.Chemistry.Normalize()
	if kind == KindLinear {
		return errors.New("battery: the linear tier is a Linear, not a Pack (use NewModel)")
	}
	curve, ref := chemCurve(kind)
	*p = Pack{curve: curve, curveRef: ref, thermalTau: spec.ThermalCapacity * spec.ThermalResistance}
	p.ledger.init(spec, opts)
	return nil
}

// referenceCurrent is the 20-hour discharge rate the capacity is rated at.
func (p *Pack) referenceCurrent() units.Ampere {
	return units.Ampere(float64(p.spec.NominalCapacity) / 20)
}

// capacityAt returns the Peukert-adjusted capacity for discharge current i.
// Below the reference rate the rated capacity applies.
func (p *Pack) capacityAt(i units.Ampere) units.AmpereHour {
	c := p.EffectiveCapacity()
	ref := p.referenceCurrent()
	if i <= ref {
		return c
	}
	k := p.spec.PeukertExponent
	scale := math.Pow(float64(ref)/float64(i), k-1)
	return units.AmpereHour(float64(c) * scale)
}

// internalResistance returns the present internal resistance including
// manufacturing variation and corrosion growth.
func (p *Pack) internalResistance() float64 {
	return p.spec.InternalResistance * p.st.ResistanceScale * (1 + p.st.Degradation.ResistanceGrowth)
}

// ocv returns the open-circuit voltage at the present SoC, scaled from the
// chemistry's reference curve to the pack's nominal voltage.
func (p *Pack) ocv() units.Volt {
	if p.ocvOk && p.st.SoC == p.ocvSoC {
		return p.ocvVal
	}
	v := p.curve.At(p.st.SoC)
	p.ocvSoC = p.st.SoC
	p.ocvVal = units.Volt(v * float64(p.spec.NominalVoltage) / p.curveRef)
	p.ocvOk = true
	return p.ocvVal
}

// OpenCircuitVoltage exposes the rest voltage (what the sensor module reads
// when the battery idles).
func (p *Pack) OpenCircuitVoltage() units.Volt { return p.ocv() }

// TerminalVoltage returns the loaded terminal voltage for discharge current
// i (positive = discharging, negative = charging).
func (p *Pack) TerminalVoltage(i units.Ampere) units.Volt {
	return units.Volt(float64(p.ocv()) - float64(i)*p.internalResistance())
}

// ErrPowerExceedsLimit is returned by CurrentForPower when the requested
// power cannot be delivered at any current (the IR drop dominates).
var ErrPowerExceedsLimit = errors.New("battery: requested power exceeds deliverable maximum")

// CurrentForPower solves for the discharge current that delivers electrical
// power pw at the terminals: pw = (OCV − I·R)·I. It returns
// ErrPowerExceedsLimit when the quadratic has no real solution.
func (p *Pack) CurrentForPower(pw units.Watt) (units.Ampere, error) {
	if pw <= 0 {
		return 0, nil
	}
	v := float64(p.ocv())
	r := p.internalResistance()
	disc := v*v - 4*r*float64(pw)
	if disc < 0 {
		return 0, fmt.Errorf("%w: %v at OCV %v", ErrPowerExceedsLimit, pw, p.ocv())
	}
	i := (v - math.Sqrt(disc)) / (2 * r)
	return units.Ampere(i), nil
}

// MaxDischargePower returns the maximum instantaneous power deliverable
// without the terminal voltage collapsing below the cutoff line. This is the
// quantity behind the paper's P_threshold (Fig 9): the largest draw the pack
// can sustain.
func (p *Pack) MaxDischargePower() units.Watt {
	v := float64(p.ocv())
	vc := float64(p.spec.CutoffVoltage)
	r := p.internalResistance()
	if v <= vc {
		return 0
	}
	// At the cutoff boundary the current is (v-vc)/r and power vc·I.
	i := (v - vc) / r
	return units.Watt(vc * i)
}

// MaxChargePower returns the battery-side power the charger could push
// into the pack this instant: OCV times the taper-limited charge current.
// Zero when full. The charger-side request adds conversion losses on top
// (the node divides by its charger efficiency).
func (p *Pack) MaxChargePower() units.Watt {
	if p.st.SoC >= 1 {
		return 0
	}
	return units.Watt(float64(p.ocv()) * p.chargeLimit())
}

// CutOff reports whether the battery has reached the protection threshold:
// either empty or unable to hold the cutoff voltage at the reference rate.
func (p *Pack) CutOff() bool {
	if p.st.SoC <= 0.02 {
		return true
	}
	return p.TerminalVoltage(p.referenceCurrent()) < p.spec.CutoffVoltage
}

// StepResult reports what actually happened during a Step.
type StepResult struct {
	// Current is the realized terminal current (positive = discharge).
	Current units.Ampere
	// Voltage is the terminal voltage during the step.
	Voltage units.Volt
	// Energy is the electrical energy exchanged at the terminals
	// (positive = delivered to the load).
	Energy units.WattHour
	// Charge is the charge moved at the terminals (positive = out).
	Charge units.AmpereHour
	// CutOff reports whether the protection threshold tripped during the
	// step (discharge was truncated).
	CutOff bool
}

// finite reports whether x is a usable number (not NaN or ±Inf).
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// checkStep validates the inputs every step method shares: op names the
// step in the error for a negative power. Rejecting non-finite values here
// is what keeps a poisoned sensor reading or a fuzzer-crafted NaN from
// flowing through Clamp (which passes NaN) into the state of charge.
func checkStep(op string, pw units.Watt, dt time.Duration, amb units.Celsius) error {
	if !finite(float64(pw)) {
		return fmt.Errorf("battery: non-finite power %v", pw)
	}
	if dt <= 0 {
		return fmt.Errorf("battery: non-positive step duration %v", dt)
	}
	if !finite(float64(amb)) {
		return fmt.Errorf("battery: non-finite ambient temperature %v", amb)
	}
	if pw < 0 {
		return fmt.Errorf("battery: negative %s power %v", op, pw)
	}
	return nil
}

// Discharge draws electrical power pw from the pack for duration dt at
// ambient temperature amb. The realized energy may be lower than requested
// if the pack trips its cutoff mid-step.
func (p *Pack) Discharge(pw units.Watt, dt time.Duration, amb units.Celsius) (StepResult, error) {
	if err := checkStep("discharge", pw, dt, amb); err != nil {
		return StepResult{}, err
	}
	if pw == 0 || p.CutOff() {
		p.rest(dt, amb)
		return p.idle(p.ocv(), p.CutOff()), nil
	}
	i, err := p.CurrentForPower(pw)
	if err != nil {
		// Deliver the maximum instead of failing: the switcher asked for
		// more than the chemistry can give, which in the prototype trips
		// the under-voltage disconnect.
		p.rest(dt, amb)
		return p.trip(p.ocv()), nil
	}
	v := p.TerminalVoltage(i)
	if v < p.spec.CutoffVoltage {
		p.rest(dt, amb)
		return p.trip(v), nil
	}
	res, flowed := p.discharge(i, v, p.capacityAt(i), dt)
	p.heat(i, flowed, amb)
	return res, nil
}

// Charge pushes electrical power pw into the pack for dt. The charger model
// caps current at MaxChargeCurrent and tapers as the pack approaches full.
// It returns the power actually accepted, which lets the power bus route
// surplus solar elsewhere.
func (p *Pack) Charge(pw units.Watt, dt time.Duration, amb units.Celsius) (StepResult, error) {
	if err := checkStep("charge", pw, dt, amb); err != nil {
		return StepResult{}, err
	}
	if pw == 0 || p.st.SoC >= 1 {
		p.rest(dt, amb)
		return p.idle(p.ocv(), false), nil
	}
	v := float64(p.ocv())
	r := p.internalResistance()
	// Charging terminal voltage: v + I·r; current from pw = (v + I·r)·I.
	disc := v*v + 4*r*float64(pw)
	i := (-v + math.Sqrt(disc)) / (2 * r)
	if maxI := p.chargeLimit(); i > maxI {
		i = maxI
	}
	res := p.charge(i, units.Volt(v+i*r), dt)
	p.heat(units.Ampere(i), dt, amb)
	return res, nil
}

// Rest advances time with no terminal current: self-discharge plus thermal
// relaxation toward ambient.
func (p *Pack) Rest(dt time.Duration, amb units.Celsius) error {
	if err := checkStep("rest", 0, dt, amb); err != nil {
		return err
	}
	p.rest(dt, amb)
	p.rested(dt)
	return nil
}

func (p *Pack) rest(dt time.Duration, amb units.Celsius) {
	p.selfDischarge(dt)
	p.heat(0, dt, amb)
}

// heat advances the lumped thermal model: I²R generation against a single
// case-to-ambient resistance.
func (p *Pack) heat(i units.Ampere, dt time.Duration, amb units.Celsius) {
	gen := 0.0
	if i != 0 {
		gen = float64(i) * float64(i) * p.internalResistance() // watts
	}
	tau := p.thermalTau
	if tau <= 0 {
		return
	}
	if dt != p.heatDt {
		p.heatAlpha = 1 - math.Exp(-dt.Seconds()/tau)
		p.heatDt = dt
	}
	steady := float64(amb) + gen*p.spec.ThermalResistance
	alpha := p.heatAlpha
	t := float64(p.st.Temperature) + (steady-float64(p.st.Temperature))*alpha
	p.setTemperature(t)
}
