package aging

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/units"
)

// Mechanism identifies one of the five lead-acid aging processes of §II-B.
type Mechanism int

// The five aging mechanisms (DSN'15 §II-B, Fig 6).
const (
	Corrosion      Mechanism = iota + 1 // grid corrosion (resistance growth)
	Shedding                            // active-mass degradation/shedding
	Sulphation                          // irreversible lead-sulfate formation
	WaterLoss                           // drying out of VRLA electrolyte
	Stratification                      // electrolyte density stratification
)

// NumMechanisms is the count of modeled mechanisms.
const NumMechanisms = 5

// String returns the mechanism name.
func (m Mechanism) String() string {
	switch m {
	case Corrosion:
		return "corrosion"
	case Shedding:
		return "active-mass shedding"
	case Sulphation:
		return "sulphation"
	case WaterLoss:
		return "water loss"
	case Stratification:
		return "electrolyte stratification"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// ModelConfig carries the rate constants of the damage model. Rates are
// expressed as damage fractions per unit of driving stress so that a
// calibration test can pin the paper's measured six-month drift (Figs 3–5).
type ModelConfig struct {
	// Chemistry selects the damage model: the lead-acid mechanisms below
	// (the zero value, keeping pre-existing configs and their checkpoint
	// hashes intact), the Li-ion cycle-life/calendar curves, or the linear
	// tier's throughput-only fade. Must agree with the battery spec's
	// Chemistry; node.Config.Validate cross-checks the two.
	Chemistry battery.Kind `json:",omitempty"`

	// AccelFactor uniformly scales all damage rates. 1 reproduces the
	// calibrated real-time rates; lifetime sweeps use >1 to compress
	// months of simulated aging into fast runs without disturbing the
	// relative ordering of policies.
	AccelFactor float64

	// CorrosionPerHour is resistance-growth fraction per hour at the
	// 20 °C reference with no polarization stress.
	CorrosionPerHour float64

	// CorrosionFeedback couples corrosion rate to accumulated resistance
	// growth, reproducing the accelerating voltage-drop slope of Fig 3
	// (0.1 V/month early, 0.3 V/month late).
	CorrosionFeedback float64

	// SheddingPerFullCycle is capacity-fade fraction per equivalent full
	// cycle of Ah throughput at benign conditions.
	SheddingPerFullCycle float64

	// SulphationPerHourDeep is capacity-fade fraction per hour spent in
	// deep discharge (SoC < 40 %).
	SulphationPerHourDeep float64

	// WaterLossPerOverchargeAh is efficiency-loss fraction per Ah of
	// overcharge (charging while nearly full).
	WaterLossPerOverchargeAh float64

	// StratificationPerPartialAh is capacity-fade fraction per Ah cycled
	// without reaching full recharge.
	StratificationPerPartialAh float64

	// TempRefC and TempDoublingC define the Arrhenius-style thermal
	// acceleration: rates double every TempDoublingC above TempRefC
	// (§III-E: +10 °C halves lifetime).
	TempRefC      units.Celsius
	TempDoublingC float64

	// CycleFadePerEFC is capacity-fade fraction per equivalent full cycle
	// of discharge throughput — the driver for the LFP and linear
	// chemistries (lead-acid splits the same stress across its mechanism
	// rates instead).
	CycleFadePerEFC float64 `json:",omitempty"`

	// CalendarFadePerSqrtHour is the √t calendar-fade coefficient for the
	// LFP chemistry: fade = k·√(hours) at reference temperature and
	// mid-SoC storage, per the square-root-of-time laws fitted in "Quality
	// Analysis of Battery Degradation Models with Real Battery Aging
	// Experiment Data".
	CalendarFadePerSqrtHour float64 `json:",omitempty"`

	// HighSoCStress scales LFP calendar fade with storage state of charge:
	// the multiplier rises linearly from 1 at 50 % SoC to 1+HighSoCStress
	// at full, reflecting the high-voltage storage stress Li-ion cells
	// show.
	HighSoCStress float64 `json:",omitempty"`
}

// DefaultModelConfig returns rate constants calibrated so that the paper's
// prototype usage pattern, StudyCycle stepped in its hourly legs for six
// months, reproduces the measured drift: ≈9 % loaded-voltage drop (Fig 3),
// ≈14 % per-cycle energy drop (Fig 4), and ≈8 % round-trip-efficiency
// drop (Fig 5). See TestCalibrationSixMonths.
func DefaultModelConfig() ModelConfig {
	return ModelConfig{
		AccelFactor:                1,
		CorrosionPerHour:           3.4e-4,
		CorrosionFeedback:          0.35,
		SheddingPerFullCycle:       2.1e-4,
		SulphationPerHourDeep:      2.0e-5,
		WaterLossPerOverchargeAh:   6.0e-5,
		StratificationPerPartialAh: 8.0e-6,
		TempRefC:                   20,
		TempDoublingC:              10,
	}
}

// Validate checks the configuration.
func (c ModelConfig) Validate() error {
	if !c.Chemistry.Valid() {
		return fmt.Errorf("aging: unknown chemistry %q", c.Chemistry)
	}
	if !(c.AccelFactor > 0 && c.AccelFactor <= math.MaxFloat64) {
		return fmt.Errorf("aging: AccelFactor must be positive and finite, got %v", c.AccelFactor)
	}
	if !(c.TempDoublingC > 0 && c.TempDoublingC <= math.MaxFloat64) {
		return fmt.Errorf("aging: TempDoublingC must be positive and finite, got %v", c.TempDoublingC)
	}
	if math.IsNaN(float64(c.TempRefC)) || math.IsInf(float64(c.TempRefC), 0) {
		return fmt.Errorf("aging: TempRefC must be finite, got %v", c.TempRefC)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"CorrosionPerHour", c.CorrosionPerHour},
		{"CorrosionFeedback", c.CorrosionFeedback},
		{"SheddingPerFullCycle", c.SheddingPerFullCycle},
		{"SulphationPerHourDeep", c.SulphationPerHourDeep},
		{"WaterLossPerOverchargeAh", c.WaterLossPerOverchargeAh},
		{"StratificationPerPartialAh", c.StratificationPerPartialAh},
		{"CycleFadePerEFC", c.CycleFadePerEFC},
		{"CalendarFadePerSqrtHour", c.CalendarFadePerSqrtHour},
		{"HighSoCStress", c.HighSoCStress},
	} {
		if !(r.v >= 0 && r.v <= math.MaxFloat64) {
			return fmt.Errorf("aging: %s must be non-negative and finite, got %v", r.name, r.v)
		}
	}
	return nil
}

// DefaultLFPModelConfig returns rate constants for the LiFePO4 chemistry,
// matched to the empirical curves in "Quality Analysis of Battery
// Degradation Models": cycle life of roughly 3500 equivalent full cycles
// to 80 % capacity (0.2 / 3500 ≈ 5.7e-5 fade per EFC) and calendar fade
// of about 2.5 % per year at 25 °C mid-SoC storage
// (0.025 / √8760 ≈ 2.67e-4 per √hour), with temperature sensitivity a
// little gentler than lead-acid (doubling every 12 °C).
func DefaultLFPModelConfig() ModelConfig {
	return ModelConfig{
		Chemistry:               battery.KindLFP,
		AccelFactor:             1,
		CycleFadePerEFC:         5.7e-5,
		CalendarFadePerSqrtHour: 2.67e-4,
		HighSoCStress:           0.6,
		TempRefC:                25,
		TempDoublingC:           12,
	}
}

// DefaultLinearModelConfig returns the linear tier's throughput-only
// damage model: a single fade-per-equivalent-full-cycle rate on the VRLA
// scale, calibrated against the electrochemical reference on the 30-day
// golden scenario (the cross-fidelity comparison in internal/sim pins the
// residual error), so linear-tier health falls on the same trajectory as
// the full model without simulating the mechanisms.
func DefaultLinearModelConfig() ModelConfig {
	return ModelConfig{
		Chemistry:       battery.KindLinear,
		AccelFactor:     1,
		CycleFadePerEFC: 3e-3,
		TempRefC:        20,
		TempDoublingC:   10,
	}
}

// DefaultModelConfigFor returns the stock damage-model constants for a
// battery model tier.
func DefaultModelConfigFor(k battery.Kind) (ModelConfig, error) {
	switch k.Normalize() {
	case battery.KindLeadAcid:
		return DefaultModelConfig(), nil
	case battery.KindLinear:
		return DefaultLinearModelConfig(), nil
	case battery.KindLFP:
		return DefaultLFPModelConfig(), nil
	}
	return ModelConfig{}, fmt.Errorf("aging: unknown battery model %q", k)
}

// Model integrates mechanism-level damage for one battery from its sample
// stream and renders the result as battery.Degradation. The zero value is
// unusable; construct with NewModel.
type Model struct {
	cfg    ModelConfig
	capNom units.AmpereHour

	// st holds the accumulated damage in its checkpoint shape: Snapshot
	// returns it, and Restore validates a snapshot and assigns it.
	st ModelState

	// chem is cfg.Chemistry.Normalize() hoisted to an integer tag at
	// construction so the per-sample Observe dispatch is a jump, not a
	// string comparison.
	chem uint8

	// dtLast/dtHours memoize Sample.Dt.Hours(): the tick width is constant
	// within a run, so after the first sample the hours conversion is an
	// integer compare instead of a float division. The cached value is the
	// same division result bit for bit.
	dtLast  time.Duration
	dtHours float64
}

// Chemistry dispatch tags (Model.chem).
const (
	chemLeadAcid uint8 = iota
	chemLFP
	chemLinear
)

// NewModel creates a damage integrator for a battery with nominal capacity
// capNom (the per-cycle normalizer for throughput-driven mechanisms).
func NewModel(cfg ModelConfig, capNom units.AmpereHour) (*Model, error) {
	m := new(Model)
	if err := NewModelInto(m, cfg, capNom); err != nil {
		return nil, err
	}
	return m, nil
}

// NewModelInto initializes a damage integrator in place, overwriting *m.
// It exists so a node can hold its damage model by value; the resulting
// value is identical to one built by NewModel.
func NewModelInto(m *Model, cfg ModelConfig, capNom units.AmpereHour) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if capNom <= 0 {
		return fmt.Errorf("aging: nominal capacity must be positive, got %v", capNom)
	}
	*m = Model{cfg: cfg, capNom: capNom}
	switch cfg.Chemistry.Normalize() {
	case battery.KindLFP:
		m.chem = chemLFP
	case battery.KindLinear:
		m.chem = chemLinear
	}
	return nil
}

// hoursOf returns d.Hours() memoized on d. Observe rejects non-positive
// durations before calling this, so the zero-valued cache can never alias
// a real sample.
func (m *Model) hoursOf(d time.Duration) float64 {
	if d != m.dtLast {
		m.dtLast, m.dtHours = d, d.Hours()
	}
	return m.dtHours
}

// tempFactor returns the Arrhenius-style acceleration at temperature t,
// clamped to the physical envelope the battery model enforces (≤ 90 °C) so
// that degraded-pack feedback cannot run the rates to infinity.
func (m *Model) tempFactor(t units.Celsius) float64 {
	c := units.Clamp(float64(t), -20, 90)
	return pow2((c - float64(m.cfg.TempRefC)) / m.cfg.TempDoublingC)
}

// ln2 is math.Log(2) evaluated once, the value math.Pow(2, y) computes on
// every call.
var ln2 = math.Log(2)

// pow2 returns math.Pow(2, y) bit for bit, without pow's Log call and
// Frexp/Ldexp scaling. It replays Go's pow for base 2: split |y| with
// Modf, fold a fractional part above 0.5 into the integer part, take
// Exp(yf·ln2), invert it for y < 0, and scale by 2^±yi. pow's own scaling
// (Frexp, repeated squaring of the mantissa 0.5, Ldexp) only ever
// multiplies by powers of two, so while every intermediate is a normal
// float it is the exact multiply by 2^±yi done here. |y| ≤ 1000 keeps it
// so; NaN, ±Inf and larger |y| fall back to math.Pow. pow answers
// y = ±0.5 with Sqrt, which differs from Exp(0.5·ln2) in the last bit, so
// those cases are kept too: a resting lead-acid pack at 25 °C sits at
// exactly y = 0.5.
func pow2(y float64) float64 {
	switch {
	case y == 0.5:
		return math.Sqrt(2)
	case y == -0.5:
		return 1 / math.Sqrt(2)
	case !(math.Abs(y) <= 1000):
		return math.Pow(2, y)
	}
	yi, yf := math.Modf(math.Abs(y))
	a := 1.0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a = math.Exp(yf * ln2)
	}
	e := int(yi)
	if y < 0 {
		a, e = 1/a, -e
	}
	return a * math.Float64frombits(uint64(e+1023)<<52)
}

// lowSoCStress grows as SoC falls below the deep-discharge line; 1 at 40 %
// SoC, rising quadratically to 6 when empty. Shedding and sulphation both
// accelerate sharply at very low states of charge (§II-B-2, §II-B-3), which
// is why the cycle-life curves of Fig 10 fall off so steeply with depth of
// discharge.
func lowSoCStress(soc float64) float64 {
	if soc >= DeepDischargeSoC {
		return 1
	}
	d := (DeepDischargeSoC - soc) / DeepDischargeSoC
	return 1 + 5*d*d
}

// Observe integrates damage for one sample interval, dispatching on the
// configured chemistry.
func (m *Model) Observe(s Sample) error {
	if s.Dt <= 0 {
		return fmt.Errorf("aging: sample duration must be positive, got %v", s.Dt)
	}
	switch m.chem {
	case chemLFP:
		m.observeLFP(s)
	case chemLinear:
		m.observeLinear(s)
	default:
		m.observeLeadAcid(s)
	}
	return nil
}

// observeLeadAcid integrates the five VRLA mechanisms of §II-B.
func (m *Model) observeLeadAcid(s Sample) {
	hours := m.hoursOf(s.Dt)
	soc := units.Clamp01(s.SoC)
	tf := m.tempFactor(s.Temperature)
	a := m.cfg.AccelFactor

	// 1) Grid corrosion: always ticking, thermally accelerated, with a
	//    positive feedback on accumulated growth and extra polarization
	//    stress while float-charging near full.
	polarization := 1.0
	if s.Current < 0 && soc > 0.95 {
		polarization = 1.6
	}
	// The feedback term is clamped so a failed battery's runaway corrosion
	// stays finite (the pack clamps applied resistance growth anyway).
	feedback := 1 + m.cfg.CorrosionFeedback*units.Clamp(m.st.ResGrowth, 0, 20)
	dCorr := a * m.cfg.CorrosionPerHour * hours * tf * polarization * feedback
	m.st.ByMechanism[Corrosion-1] += dCorr
	m.st.ResGrowth += dCorr
	// Corrosion also strands a little active material.
	m.st.CapFade += 0.01 * dCorr

	if s.Current > 0 { // discharging
		ah := float64(s.Current) * hours
		cycles := ah / float64(m.capNom)

		// 2) Active-mass shedding: proportional to Ah throughput,
		//    accelerated at low SoC and at discharge rates above the
		//    reference (C/20) rate.
		rateStress := 1.0
		ref := float64(m.capNom) / 20
		if float64(s.Current) > ref {
			rateStress = math.Sqrt(float64(s.Current) / ref)
		}
		dShed := a * m.cfg.SheddingPerFullCycle * cycles * lowSoCStress(soc) * rateStress * tf
		m.st.ByMechanism[Shedding-1] += dShed
		m.st.CapFade += dShed
		m.st.ResGrowth += 0.3 * dShed

		// 5) Stratification: partial cycling that never reaches a full
		//    recharge lets acid stratify; damage scales with Ah cycled
		//    since the last full charge.
		m.st.SinceFull += ah
		dStrat := a * m.cfg.StratificationPerPartialAh * ah * tf * units.Clamp(m.st.SinceFull/float64(m.capNom), 0, 3)
		m.st.ByMechanism[Stratification-1] += dStrat
		m.st.CapFade += dStrat
	}

	if s.Current < 0 { // charging
		ah := -float64(s.Current) * hours
		// 4) Water loss: overcharge gassing near full, thermally driven.
		if soc > 0.95 {
			dWater := a * m.cfg.WaterLossPerOverchargeAh * ah * tf
			m.st.ByMechanism[WaterLoss-1] += dWater
			m.st.EffLoss += dWater
			m.st.ResGrowth += 0.2 * dWater
		}
		if soc >= 0.99 {
			// Full recharge dissolves fresh sulphate and remixes the
			// electrolyte going forward (the already-booked damage is
			// irreversible).
			m.st.SinceFull = 0
		}
	}

	// 3) Sulphation: time spent at low SoC converts active mass
	//    irreversibly; nearly linear in time and in sulphate-ion
	//    solubility, which rises with temperature (§II-B-3).
	if soc < DeepDischargeSoC {
		dSul := a * m.cfg.SulphationPerHourDeep * hours * lowSoCStress(soc) * tf
		m.st.ByMechanism[Sulphation-1] += dSul
		m.st.CapFade += dSul
		m.st.ResGrowth += 0.5 * dSul
	}
}

// observeLFP integrates the Li-ion damage model: √t calendar fade scaled
// by temperature and storage SoC, plus throughput-driven cycle fade.
// Calendar fade books under the Corrosion slot and cycle fade under the
// Shedding slot — the time-driven and throughput-driven buckets of the
// mechanism decomposition — so ByMechanism and the snapshot shape stay
// common across chemistries.
func (m *Model) observeLFP(s Sample) {
	hours := m.hoursOf(s.Dt)
	soc := units.Clamp01(s.SoC)
	tf := m.tempFactor(s.Temperature)
	a := m.cfg.AccelFactor

	// Calendar fade follows k·√t, so the increment over this sample is
	// k·(√t₁ − √t₀) on an accelerated clock. Accumulating a·dt into the
	// clock first makes AccelFactor compress time exactly — fade after
	// simulating T hours at acceleration a equals fade after a·T real
	// hours — where scaling the increment instead would overstate √t fade
	// a-fold.
	prev := m.st.Hours
	m.st.Hours += a * hours
	socStress := 1 + m.cfg.HighSoCStress*math.Max(0, soc-0.5)/0.5
	dCal := m.cfg.CalendarFadePerSqrtHour * (math.Sqrt(m.st.Hours) - math.Sqrt(prev)) * tf * socStress
	m.st.ByMechanism[Corrosion-1] += dCal
	m.st.CapFade += dCal
	m.st.ResGrowth += 0.1 * dCal

	if s.Current > 0 { // discharging
		ah := float64(s.Current) * hours
		cycles := ah / float64(m.capNom)
		// LFP tolerates deep discharge far better than lead-acid: stress
		// rises only quadratically to 2 at empty, not 6.
		stress := 1.0
		if soc < DeepDischargeSoC {
			d := (DeepDischargeSoC - soc) / DeepDischargeSoC
			stress = 1 + d*d
		}
		dCyc := a * m.cfg.CycleFadePerEFC * cycles * stress * tf
		m.st.ByMechanism[Shedding-1] += dCyc
		m.st.CapFade += dCyc
		m.st.ResGrowth += 0.2 * dCyc
	}
}

// observeLinear integrates the linear tier's throughput-only fade: no
// thermal, SoC, or calendar terms, just fade per equivalent full cycle,
// booked under the Shedding slot.
func (m *Model) observeLinear(s Sample) {
	if s.Current <= 0 {
		return
	}
	ah := float64(s.Current) * m.hoursOf(s.Dt)
	dCyc := m.cfg.AccelFactor * m.cfg.CycleFadePerEFC * ah / float64(m.capNom)
	m.st.ByMechanism[Shedding-1] += dCyc
	m.st.CapFade += dCyc
}

// InjectDamage books externally caused, irreversible damage on top of the
// integrated mechanism stress: sudden capacity fade, internal-resistance
// growth, or efficiency loss from a cell failure rather than gradual wear
// (the fault injector's battery faults land here). Negative components are
// ignored. The ByMechanism decomposition is untouched — injected damage is
// not attributable to any of the five modeled mechanisms, so after an
// injection the per-mechanism stresses no longer sum to the totals.
func (m *Model) InjectDamage(capFade, resGrowth, effLoss float64) {
	if capFade > 0 {
		m.st.CapFade += capFade
	}
	if resGrowth > 0 {
		m.st.ResGrowth += resGrowth
	}
	if effLoss > 0 {
		m.st.EffLoss += effLoss
	}
}

// Degradation renders the accumulated damage in the battery package's
// vocabulary so it can be applied to a Pack.
func (m *Model) Degradation() battery.Degradation {
	return battery.Degradation{
		CapacityFade:     units.Clamp01(m.st.CapFade),
		ResistanceGrowth: m.st.ResGrowth,
		EfficiencyLoss:   m.st.EffLoss,
	}
}

// Health returns the remaining-capacity fraction implied by the damage.
func (m *Model) Health() float64 { return 1 - units.Clamp01(m.st.CapFade) }

// ByMechanism returns the raw accumulated stress attributed to each
// mechanism — the decomposition Fig 6 correlates with the metrics.
func (m *Model) ByMechanism() map[Mechanism]float64 {
	out := make(map[Mechanism]float64, NumMechanisms)
	for i := 0; i < NumMechanisms; i++ {
		out[Mechanism(i+1)] = m.st.ByMechanism[i]
	}
	return out
}

// EstimateLifetime extrapolates time to end-of-life (health = 0.8) assuming
// the average damage rate observed over elapsed so far continues. It returns
// 0 if no time has elapsed, and the elapsed time itself if already at EoL.
// BAAT's planner uses this to predict battery lifetime (§I: "proactively
// predicts battery lifetime").
func (m *Model) EstimateLifetime(elapsed time.Duration) time.Duration {
	if elapsed <= 0 {
		return 0
	}
	if m.Health() <= battery.EndOfLifeHealth {
		return elapsed
	}
	if m.st.CapFade <= 0 {
		return time.Duration(math.MaxInt64)
	}
	rate := m.st.CapFade / elapsed.Hours() // fade per hour
	remaining := (1 - battery.EndOfLifeHealth) - m.st.CapFade
	h := remaining / rate
	return elapsed + time.Duration(h*float64(time.Hour))
}
