package battery

import (
	"fmt"

	"github.com/green-dc/baat/internal/units"
)

// Kind names a battery model tier: a chemistry plus the fidelity of the
// electrical model simulating it. The zero value ("") normalizes to
// KindLeadAcid, the reference tier, so configurations written before
// model selection existed keep their meaning (and their config hashes).
type Kind string

// The selectable model tiers.
const (
	// KindLeadAcid is the reference tier: the electrochemical VRLA model
	// (Peukert capacity, OCV curve, IR drop, lumped thermal) the golden
	// traces pin.
	KindLeadAcid Kind = "leadacid"
	// KindLinear is the fast coulomb-counting tier for warehouse-scale
	// sweeps: constant terminal voltage, no Peukert or thermal model.
	KindLinear Kind = "linear"
	// KindLFP is the Li-ion (LiFePO4) chemistry: the electrochemical
	// model with the flat LFP voltage plateau and its own cycle-life and
	// calendar-aging behaviour in the aging package.
	KindLFP Kind = "lfp"
)

// Kinds lists every selectable tier, reference first.
func Kinds() []Kind { return []Kind{KindLeadAcid, KindLinear, KindLFP} }

// Normalize maps the zero value to the reference tier.
func (k Kind) Normalize() Kind {
	if k == "" {
		return KindLeadAcid
	}
	return k
}

// Valid reports whether k names a known tier (the zero value counts: it
// is the reference tier by Normalize).
func (k Kind) Valid() bool {
	switch k.Normalize() {
	case KindLeadAcid, KindLinear, KindLFP:
		return true
	}
	return false
}

// String returns the normalized tier name.
func (k Kind) String() string { return string(k.Normalize()) }

// ParseKind resolves a -battery-model flag value, accepting the common
// spellings of each tier.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "leadacid", "lead-acid", "vrla":
		return KindLeadAcid, nil
	case "linear", "coulomb":
		return KindLinear, nil
	case "lfp", "lifepo4", "liion", "li-ion":
		return KindLFP, nil
	}
	return "", fmt.Errorf("battery: unknown model %q (want leadacid, linear, or lfp)", s)
}

// DefaultSpecFor returns the stock pack specification for a tier, sized
// like the prototype's per-server bank: the lead-acid tiers pair two
// 12 V 35 Ah VRLA units, the LFP tier is one 12.8 V 70 Ah retrofit unit
// of comparable energy.
func DefaultSpecFor(k Kind) (Spec, error) {
	switch k.Normalize() {
	case KindLeadAcid:
		return Parallel(DefaultSpec(), 2), nil
	case KindLinear:
		return LinearSpec(Parallel(DefaultSpec(), 2)), nil
	case KindLFP:
		return DefaultLFPSpec(), nil
	}
	return Spec{}, fmt.Errorf("battery: unknown model %q", k)
}

// DefaultLFPSpec returns a 12.8 V 70 Ah LiFePO4 retrofit unit — the
// drop-in replacement for the prototype's two paralleled VRLA packs.
// The parameters follow published LFP datasheets: a Peukert exponent
// near 1 (rate-insensitive capacity), low internal resistance, ~99 %
// coulombic efficiency, and a lifetime throughput of roughly 3500
// equivalent full cycles (an order of magnitude beyond VRLA).
func DefaultLFPSpec() Spec {
	return Spec{
		Chemistry:             KindLFP,
		NominalVoltage:        12.8,
		NominalCapacity:       70,
		PeukertExponent:       1.02,
		InternalResistance:    0.008,
		CoulombicEfficiency:   0.99,
		SelfDischargeFraction: 0.001,
		CutoffVoltage:         10.0, // 2.5 V/cell × 4s
		MaxChargeCurrent:      35,   // C/2
		LifetimeThroughput:    245000,
		ThermalCapacity:       8000, // ~8 kg × 1000 J/(kg·°C)
		ThermalResistance:     2.0,
	}
}

// LinearSpec re-tags a spec for the linear coulomb-counting tier,
// neutralizing the rate effects that tier does not model.
func LinearSpec(s Spec) Spec {
	s.Chemistry = KindLinear
	s.PeukertExponent = 1
	return s
}

// lfpOCVCurve maps state of charge to open-circuit voltage for a nominal
// 12.8 V (4-series-cell) LiFePO4 pack at 25 °C: the steep knee below
// ~10 % charge, the flat 3.25–3.33 V/cell plateau that makes LFP SoC
// estimation notoriously hard, and the charge shoulder at the top.
// Voltages scale with NominalVoltage/12.8 for other pack voltages.
var lfpOCVCurve = units.MustInterpolator(
	[]float64{0.00, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 1.00},
	[]float64{10.00, 12.00, 12.80, 12.90, 13.00, 13.05, 13.10, 13.15, 13.20, 13.25, 13.30, 13.40, 13.80},
)

// chemCurve selects the OCV curve and its reference pack voltage for an
// electrochemical chemistry.
func chemCurve(k Kind) (*units.Interpolator, float64) {
	if k == KindLFP {
		return lfpOCVCurve, 12.8
	}
	return ocvCurve, 12
}
