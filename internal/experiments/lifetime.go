package experiments

import (
	"fmt"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/sim"
	"github.com/green-dc/baat/internal/solar"
)

// lifetimeMaxDays bounds end-of-life searches (compressed days).
const lifetimeMaxDays = 150

// lifetimeReplicas is how many independent weather sequences each lifetime
// point averages over; first-battery-death is a minimum statistic, so a
// single sequence is dominated by rainy-streak luck.
const lifetimeReplicas = 3

// fleetLifetime runs a policy until the first battery reaches end-of-life,
// averaged over weather replicas, and returns the real-equivalent lifetime
// plus per-day throughput.
func fleetLifetime(cfg Config, spec core.PolicySpec, frac float64,
	mutate func(*sim.Config)) (time.Duration, float64, error) {
	replicas := lifetimeReplicas
	maxDays := lifetimeMaxDays
	if cfg.Quick {
		replicas = 1
		maxDays = 40
	}
	var lifeSum time.Duration
	var thrSum float64
	for rep := 0; rep < replicas; rep++ {
		tweaks := []func(*sim.Config){func(c *sim.Config) { c.Seed = cfg.Seed + int64(rep)*101 }}
		if mutate != nil {
			tweaks = append(tweaks, mutate)
		}
		s, err := prototypeSim(cfg, spec, tweaks...)
		if err != nil {
			return 0, 0, err
		}
		res, err := s.RunUntilEndOfLife(solar.Location{SunshineFraction: frac}, maxDays)
		if err != nil {
			return 0, 0, err
		}
		life := res.FleetLifetime
		if life == 0 {
			// No battery died within the horizon; use the horizon as a
			// lower bound so sweeps remain monotone.
			life = time.Duration(len(res.Days)) * 24 * time.Hour
		}
		lifeSum += life
		if len(res.Days) > 0 {
			thrSum += res.Throughput / float64(len(res.Days))
		}
	}
	life := realLifetime(lifeSum/time.Duration(replicas), cfg.Accel)
	return life, thrSum / float64(replicas), nil
}

// LifetimeVsSunshine reproduces Fig 14: battery lifetime under different
// solar energy availability (sunshine fraction) for the four policies, and
// each BAAT variant's improvement over e-Buff.
func LifetimeVsSunshine(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fracs := []float64{0.4, 0.5, 0.6, 0.7, 0.8}
	if cfg.Quick {
		fracs = []float64{0.5}
	}
	t := &Table{
		ID:      "fig14",
		Title:   "Battery lifetime under different sunshine fractions",
		Columns: []string{"sunshine", "e-Buff (mo)", "BAAT-s (mo)", "BAAT-h (mo)", "BAAT (mo)", "BAAT gain"},
		Values:  map[string]float64{},
	}
	cells := make([]time.Duration, len(fracs)*len(table4))
	if err := runSweep(cfg.sweepWorkers(), len(cells), func(i int) error {
		frac, spec := fracs[i/len(table4)], table4[i%len(table4)]
		life, _, err := fleetLifetime(cfg, spec, frac, nil)
		if err != nil {
			return err
		}
		cells[i] = life
		return nil
	}); err != nil {
		return nil, err
	}
	gains := map[string][]float64{}
	for fi, frac := range fracs {
		lives := map[string]time.Duration{}
		for ki, spec := range table4 {
			lives[spec.Name] = cells[fi*len(table4)+ki]
		}
		months := func(name string) string {
			return fmt.Sprintf("%.1f", lives[name].Hours()/(30*24))
		}
		base := lives["ebuff"].Hours()
		gain := lives["baat"].Hours()/base - 1
		t.Rows = append(t.Rows, []string{
			pct(frac), months("ebuff"), months("baat-s"),
			months("baat-h"), months("baat"), pct(gain),
		})
		for _, spec := range table4[1:] {
			gains[spec.Name] = append(gains[spec.Name], lives[spec.Name].Hours()/base-1)
		}
		t.Values[fmt.Sprintf("ebuff_months_%.0f", frac*100)] = base / (30 * 24)
	}
	t.Values["baat_gain_avg"] = avg(gains["baat"])
	t.Values["baat_s_gain_avg"] = avg(gains["baat-s"])
	t.Values["baat_h_gain_avg"] = avg(gains["baat-h"])
	t.Notes = append(t.Notes,
		"paper: BAAT extends battery life by 69% on average; BAAT-s 37%, BAAT-h 29%;",
		"lifetime increases with solar availability")
	return t, nil
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// scaleBatteryForRatio resizes the per-node battery bank so that the
// server-to-battery capacity ratio (peak server W per battery Ah) equals r.
// It scales the node's own spec, so the bank stays on the tier the node
// template runs.
func scaleBatteryForRatio(nc *sim.Config, r float64) {
	targetAh := float64(nc.Node.ServerSpec.PeakPower) / r
	base := nc.Node.BatterySpec
	nc.Node.BatterySpec = battery.Scaled(base, targetAh/float64(base.NominalCapacity))
}

// LifetimeVsRatio reproduces Fig 15: battery lifetime as the
// server-to-battery capacity ratio grows from 2 to 10 W/Ah, for e-Buff and
// BAAT. Heavier loading per installed Ah accelerates aging, and BAAT's
// advantage grows as the system becomes power-constrained.
func LifetimeVsRatio(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ratios := []float64{2, 4, 6, 8, 10}
	if cfg.Quick {
		ratios = []float64{2, 10}
	}
	t := &Table{
		ID:      "fig15",
		Title:   "Battery life under different server-to-battery ratios (W/Ah)",
		Columns: []string{"ratio (W/Ah)", "e-Buff (mo)", "BAAT (mo)", "BAAT gain"},
		Values:  map[string]float64{},
	}
	const frac = 0.6
	ratioSpecs := []core.PolicySpec{specEBuff, cfg.treatment()}
	cells := make([]time.Duration, len(ratios)*len(ratioSpecs))
	if err := runSweep(cfg.sweepWorkers(), len(cells), func(i int) error {
		r, spec := ratios[i/len(ratioSpecs)], ratioSpecs[i%len(ratioSpecs)]
		life, _, err := fleetLifetime(cfg, spec, frac,
			func(sc *sim.Config) { scaleBatteryForRatio(sc, r) })
		if err != nil {
			return err
		}
		cells[i] = life
		return nil
	}); err != nil {
		return nil, err
	}
	var firstEBuff, lastEBuff float64
	var firstGain, lastGain float64
	for i, r := range ratios {
		eLife, bLife := cells[i*2], cells[i*2+1]
		gain := bLife.Hours()/eLife.Hours() - 1
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", r),
			fmt.Sprintf("%.1f", eLife.Hours()/(30*24)),
			fmt.Sprintf("%.1f", bLife.Hours()/(30*24)),
			pct(gain),
		})
		t.Values[fmt.Sprintf("gain_ratio_%.0f", r)] = gain
		if i == 0 {
			firstEBuff, firstGain = eLife.Hours(), gain
		}
		lastEBuff, lastGain = eLife.Hours(), gain
	}
	if firstEBuff > 0 {
		t.Values["lifetime_drop_2_to_10"] = 1 - lastEBuff/firstEBuff
	}
	t.Values["gain_growth"] = lastGain - firstGain
	t.Notes = append(t.Notes,
		"paper: lifetime falls ~35% from 2 to 10 W/Ah; BAAT's gain grows from 37% toward 1.4x;",
		"doubling battery capacity buys <30% lifetime (sub-linear)")
	return t, nil
}
