package battery

import (
	"time"

	"github.com/green-dc/baat/internal/units"
)

// The linear tier is the fast coulomb-counting physics of a Pack built from
// a KindLinear spec: terminal voltage is constant at nominal, capacity is
// rate-independent (no Peukert effect), and the case temperature simply
// tracks ambient (no thermal model). What remains is the charge bookkeeping
// every tier shares through the ledger — self-discharge, coulombic losses,
// the charger taper, and the cumulative counters the aging metrics consume
// — which is the fidelity level "Choosing the Right Battery Model for Data
// Center Simulations" recommends for warehouse-scale sweeps. The exported
// Pack methods branch on Pack.linear; the linear discharge and charge steps
// sit in those branches, and the limit and rest physics below.

// linearDischargeCRate caps the linear tier's discharge at 2C. The
// electrochemical tiers derive their power limit from the IR drop; the
// linear tier has no voltage sag, so a fixed C-rate stands in for the
// protection circuit. 2C comfortably exceeds any draw the simulator's
// server loads produce, so the cap only matters for adversarial inputs.
const linearDischargeCRate = 2

// linearMaxDischargePower is the tier's fixed C-rate cap times the
// effective capacity — the stand-in for the IR-drop-derived P_threshold.
func (p *Pack) linearMaxDischargePower() units.Watt {
	return units.Watt(float64(p.spec.NominalVoltage) * linearDischargeCRate * float64(p.EffectiveCapacity()))
}

// linearRest is the tier's rest physics: the case temperature takes the
// ambient, and the pack self-discharges.
func (p *Pack) linearRest(dt time.Duration, amb units.Celsius) {
	p.setTemperature(float64(amb))
	p.selfDischarge(dt)
}
