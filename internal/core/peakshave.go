package core

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/signal"
)

// peakShave is the demand-response scheme of §II-A (Table 1's "occasional
// cycling" row) as a controller over the tariff signal, the way Boyd et al.
// treat arbitrage: while electricity is at its cheapest it holds every
// battery that has utility backup, so deficits are bought from the grid at
// the off-peak rate and the charge solar puts in is saved; while the price
// is above that minimum it lets the batteries carry the load down to the
// configured floor. It is the first consumer of ctx.Signals.Price.
//
// Placement is e-Buff's least-reserved pick. The policy is stateless: the
// floors it sets live in node state, which the checkpoint envelope already
// carries.
type peakShave struct {
	eBuff
	floor float64
}

// PeakShaveHoldSoC is the SoC floor peak-shave sets on a battery it holds
// for the peak. The floor must stay below 1, so a pack at full charge
// still gives back at most the top percent before the hold bites.
const PeakShaveHoldSoC = 0.99

// tariffScanStep is the resolution at which peak-shave finds the tariff's
// daily minimum: tariffs whose price changes on whole minutes are read
// exactly.
const tariffScanStep = time.Minute

func init() {
	Register("peak-shave", Descriptor{
		Display: "Peak-shave",
		Aliases: []string{"peakshave"},
		Rank:    6,
		Doc:     "demand response: hold batteries on utility power at the cheapest tariff rate, discharge them through the price peak",
		Options: map[string]string{
			"floor": fmt.Sprintf("SoC floor the peak discharge stops at, in [0, %v] (default 0.40)", PeakShaveHoldSoC),
		},
		Build: buildPeakShave,
	})
}

func buildPeakShave(spec PolicySpec) (Policy, error) {
	p := &peakShave{floor: 0.40}
	if v, ok := spec.Options["floor"]; ok {
		f, err := parseUnitFraction(v)
		if err == nil && f > PeakShaveHoldSoC {
			err = fmt.Errorf("must be <= %v", PeakShaveHoldSoC)
		}
		if err != nil {
			return nil, fmt.Errorf("core: option floor=%q: %v", v, err)
		}
		p.floor = f
	}
	return p, nil
}

// Name returns the scheme name.
func (*peakShave) Name() string { return "Peak-shave" }

// Control sets every node's SoC floor for the coming control period: the
// hold level while the tariff sits at its daily minimum, the configured
// floor otherwise. Only nodes that can fall back to utility power right now
// are held — a node without backup, or one in a brownout, keeps the floor,
// so holding its battery never turns into downtime. Without a tariff the
// policy never holds.
func (p *peakShave) Control(ctx *Context) error {
	hold := false
	if t := ctx.Signals.Price; t != nil {
		tod := ctx.Clock % (24 * time.Hour)
		hold = t.PriceAt(tod) <= dailyMinPrice(t)
	}
	for _, n := range ctx.Nodes {
		f := p.floor
		if hold && n.UtilityAvailable() {
			f = PeakShaveHoldSoC
		}
		if err := n.SetSoCFloor(f); err != nil {
			return err
		}
	}
	return nil
}

// dailyMinPrice is the lowest price the tariff charges over one day.
func dailyMinPrice(t signal.Tariff) float64 {
	lo := math.Inf(1)
	for tod := time.Duration(0); tod < 24*time.Hour; tod += tariffScanStep {
		lo = min(lo, t.PriceAt(tod))
	}
	return lo
}
