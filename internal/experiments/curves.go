package experiments

import (
	"fmt"
	"time"

	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/units"
)

// CycleLifeCurves reproduces Fig 10: battery cycle life under varying depth
// of discharge for the three manufacturers (Hoppecke, Trojan, UPG).
func CycleLifeCurves(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig10",
		Title:   "Battery cycle life under varying depth of discharge (DoD)",
		Columns: []string{"DoD", "Hoppecke", "Trojan", "UPG"},
		Values:  map[string]float64{},
	}
	dods := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if cfg.Quick {
		dods = []float64{0.2, 0.5, 0.8}
	}
	for _, dod := range dods {
		row := []string{pct(dod)}
		for _, m := range aging.Manufacturers() {
			c, err := aging.CycleLife(m, dod)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", c))
		}
		t.Rows = append(t.Rows, row)
	}
	// Headline: the 25 %→50 % DoD cycle-life ratio ("decreases by 50% if
	// frequently discharged at a DoD above 50%").
	shallow, err := aging.CycleLife(aging.Trojan, 0.25)
	if err != nil {
		return nil, err
	}
	deep, err := aging.CycleLife(aging.Trojan, 0.5)
	if err != nil {
		return nil, err
	}
	t.Values["halving_ratio"] = shallow / deep
	t.Notes = append(t.Notes, "paper: cycle life decreases ~50% beyond 50% DoD")
	return t, nil
}

// UsageScenarios reproduces Table 1: the aging speed and variation of the
// three battery usage scenarios (power backup, demand response, power
// smoothing), measured by driving identical packs through each usage
// pattern for a simulated quarter.
func UsageScenarios(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	days := 90
	if cfg.Quick {
		days = 20
	}

	// Each scenario is one day of its usage pattern; jitter perturbs the
	// per-unit depth to expose aging variation.
	scenarios := []struct {
		name string
		day  func(jitter float64) aging.DutyCycle
	}{
		{"power backup (rarely used)", func(float64) aging.DutyCycle {
			// Float at full and never discharge: jitter has no depth to
			// perturb, so the three units age alike and the spread is 0.
			return aging.DutyCycle{{W: 0, Dt: 24 * time.Hour, Steps: 1}}
		}},
		{"demand response (occasional)", func(jitter float64) aging.DutyCycle {
			// A one-hour evening peak shave (~15 % DoD), then recharge.
			return aging.DutyCycle{
				{W: units.Watt(60 + 20*jitter), Dt: time.Hour, Steps: 1},
				{W: -60, Dt: 2 * time.Hour, Steps: 1},
				{W: 0, Dt: 21 * time.Hour, Steps: 1},
			}
		}},
		{"power smoothing (cyclic)", func(jitter float64) aging.DutyCycle {
			// Deep daily cycling with unit-to-unit depth spread.
			return aging.DutyCycle{
				{W: units.Watt(55 + 35*jitter), Dt: time.Hour, Steps: 4},
				{W: -70, Dt: 5 * time.Hour, Steps: 1},
				{W: 0, Dt: 15 * time.Hour, Steps: 1},
			}
		}},
	}

	t := &Table{
		ID:      "table1",
		Title:   "Battery usage scenarios in datacenters",
		Columns: []string{"usage objective", "aging speed (fade/quarter)", "aging variation (spread)"},
		Values:  map[string]float64{},
	}
	keys := []string{"backup", "demand_response", "smoothing"}
	for si, sc := range scenarios {
		// Three units with different per-unit jitter expose variation.
		var fades []float64
		for _, jitter := range []float64{-1, 0, 1} {
			pack, err := battery.New(battery.DefaultSpec())
			if err != nil {
				return nil, err
			}
			model, err := aging.NewModel(aging.DefaultModelConfig(), battery.DefaultSpec().NominalCapacity)
			if err != nil {
				return nil, err
			}
			day := sc.day(jitter)
			for d := 0; d < days; d++ {
				if err := day.Drive(pack, model); err != nil {
					return nil, err
				}
				pack.ApplyDegradation(model.Degradation())
			}
			fades = append(fades, 1-pack.Health())
		}
		mean := (fades[0] + fades[1] + fades[2]) / 3
		spread := fades[2] - fades[0]
		if spread < 0 {
			spread = -spread
		}
		t.Rows = append(t.Rows, []string{sc.name, f3(mean), f3(spread)})
		t.Values[keys[si]+"_fade"] = mean
		t.Values[keys[si]+"_spread"] = spread
	}
	t.Notes = append(t.Notes,
		"paper: backup=light/small, demand response=medium/medium, smoothing=severe/large")
	return t, nil
}

// DemandSensitivity reproduces Table 3: how a workload's power/energy class
// moves the three placement metrics, measured by running each class against
// a fresh battery node for a day and reporting the metric deltas.
func DemandSensitivity(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table3",
		Title:   "Relation between power demands and aging factors",
		Columns: []string{"power", "energy", "ΔNAT", "ΔCF", "ΔPC", "paper row"},
		Values:  map[string]float64{},
	}
	classes := []aging.DemandClass{
		{LargePower: true, MoreEnergy: false},
		{LargePower: true, MoreEnergy: true},
		{LargePower: false, MoreEnergy: true},
		{LargePower: false, MoreEnergy: false},
	}
	paperRows := []string{
		"Medium/High/High",
		"High/High/High",
		"High/Low/Medium",
		"Low/Low/Low",
	}
	for i, c := range classes {
		// Synthesize a day of battery usage matching the class: power
		// sets the discharge current, energy sets how long it runs, and a
		// partial recharge fills the rest of the window.
		pack, err := battery.New(battery.DefaultSpec())
		if err != nil {
			return nil, err
		}
		tracker, err := aging.NewTracker(battery.DefaultSpec().LifetimeThroughput)
		if err != nil {
			return nil, err
		}
		power := units.Watt(35)
		if c.LargePower {
			power = 110
		}
		hours := 3
		if c.MoreEnergy {
			hours = 8
		}
		day := aging.DutyCycle{{W: power, Dt: time.Hour, Steps: hours}, {W: -50, Dt: 2 * time.Hour, Steps: 1}}
		if err := day.Drive(pack, tracker); err != nil {
			return nil, err
		}
		m := tracker.Metrics()
		powerLabel, energyLabel := "Small", "Less"
		if c.LargePower {
			powerLabel = "Large"
		}
		if c.MoreEnergy {
			energyLabel = "More"
		}
		t.Rows = append(t.Rows, []string{
			powerLabel, energyLabel, f3(m.NAT), f2(m.CF), f2(m.PC), paperRows[i],
		})
		key := fmt.Sprintf("class%d", i)
		t.Values[key+"_nat"] = m.NAT
		t.Values[key+"_cf"] = m.CF
		t.Values[key+"_pc"] = m.PC
	}
	t.Notes = append(t.Notes,
		"ΔNAT grows with energy request; ΔCF/ΔPC degrade with large power (Table 3 semantics)")
	return t, nil
}
