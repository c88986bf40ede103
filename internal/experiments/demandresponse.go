package experiments

import (
	"fmt"
	"strconv"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/cost"
	"github.com/green-dc/baat/internal/rng"
	"github.com/green-dc/baat/internal/sim"
)

// DemandResponse quantifies the dual-purposing question the paper's related
// work raises ([21]: "Should We Dual-Purpose Energy Storage in Datacenters
// for Power Backup and Demand Response?"): a quarter of the green prototype
// on utility backup under the peak-shave policy, which saves the charge
// solar puts into the batteries for the evening tariff peak and spends it
// down to a discharge floor there. Each floor's utility bill is compared
// with a backup-only reference whose batteries are held all day, and the
// savings are netted against the extra battery wear the shaving causes.
// Aging-oblivious shaving (floor at the protection limit) earns the most
// gross savings and the least net.
func DemandResponse(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A quarter of equivalent calendar time, compressed by the aging
	// acceleration factor.
	days := int(90 / cfg.Accel)
	if cfg.Quick {
		days = int(30 / cfg.Accel)
	}
	if days < 2 {
		days = 2
	}
	seq := weatherSequence(cfg.Seed, rng.ExpDemandResponse, 0.7, days)
	cm := cost.DefaultModel()

	t := &Table{
		ID:      "demand-response",
		Title:   "Demand response: arbitrage savings vs battery wear (one quarter)",
		Columns: []string{"discharge floor", "utility kWh", "shaved kWh", "gross savings ($)", "battery wear", "net benefit ($)"},
		Values:  map[string]float64{},
	}
	// Slot 0 is the backup-only reference: the hold level as the floor
	// keeps every battery held through the peak as well.
	floors := []struct {
		key   string
		floor float64
	}{
		{"reference", core.PeakShaveHoldSoC},
		{"aggressive", 0.05},
		{"baat", 0.40},
		{"timid", 0.70},
	}
	type cell struct {
		utilityWh, cost, health float64
		nodes                   int
	}
	cells := make([]cell, len(floors))
	if err := runSweep(cfg.sweepWorkers(), len(floors), func(i int) error {
		spec := core.PolicySpec{Name: "peak-shave", Options: map[string]string{
			"floor": strconv.FormatFloat(floors[i].floor, 'g', -1, 64),
		}}
		s, err := prototypeSim(cfg, spec, func(c *sim.Config) {
			c.Node.UtilityBackup = true
			c.WindowEnd = 21 * time.Hour // serve the load through the evening peak
		})
		if err != nil {
			return err
		}
		res, err := s.Run(seq)
		if err != nil {
			return err
		}
		c := cell{nodes: len(res.Nodes)}
		for _, d := range res.Days {
			c.utilityWh += float64(d.UtilityEnergy)
			c.cost += d.UtilityCost
		}
		for _, n := range res.Nodes {
			c.health += n.Health / float64(len(res.Nodes))
		}
		cells[i] = c
		return nil
	}); err != nil {
		return nil, err
	}

	ref := cells[0]
	t.Rows = append(t.Rows, []string{
		"backup only (held)", fmt.Sprintf("%.1f", ref.utilityWh/1000), "-", "-", "-", "-",
	})
	t.Values["reference_cost"] = ref.cost
	for i, f := range floors[1:] {
		c := cells[i+1]
		savings := ref.cost - c.cost
		wear := ref.health - c.health
		// Depreciate each installed unit linearly over the capacity it may
		// lose before end-of-life (20 %).
		units := float64(c.nodes * cm.BatteriesPerNode)
		depreciation := units * cm.BatteryUnitCost * wear / (1 - battery.EndOfLifeHealth)
		net := savings - depreciation
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%% (%s)", f.floor*100, f.key),
			fmt.Sprintf("%.1f", c.utilityWh/1000),
			fmt.Sprintf("%.1f", (ref.utilityWh-c.utilityWh)/1000),
			fmt.Sprintf("%.2f", savings),
			pct(wear),
			fmt.Sprintf("%.2f", net),
		})
		t.Values[f.key+"_savings"] = savings
		t.Values[f.key+"_wear"] = wear
		t.Values[f.key+"_net"] = net
	}
	t.Notes = append(t.Notes,
		"Table 1's 'demand response' row with dollars attached: the aggressive",
		"shaver earns the most gross savings and pays the most battery wear;",
		fmt.Sprintf("savings are billed over the %d simulated days, wear is aging-accelerated ×%g", days, cfg.Accel))
	return t, nil
}
