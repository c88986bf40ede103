package experiments

import (
	"fmt"
	"strconv"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/rng"
)

// plannedScale is the PV sizing for the planned-aging experiments: tight
// enough that the depth-of-discharge regulation visibly gates how much
// stored energy reaches compute.
const plannedScale = 1.15

// plannedWindowDays is the measurement window for the planned-aging
// experiments in compressed days.
func plannedWindowDays(cfg Config) int {
	days := int(150 / cfg.Accel)
	if days < 3 {
		days = 3
	}
	if cfg.Quick && days > 5 {
		days = 5
	}
	return days
}

// runWindowThroughput measures total throughput and worst-node health over
// a fixed multi-day window at sunshine fraction 0.5.
func runWindowThroughput(cfg Config, spec core.PolicySpec) (thr float64, minHealth float64, err error) {
	s, err := prototypeSimWithScale(cfg, spec, plannedScale)
	if err != nil {
		return 0, 0, err
	}
	seq := weatherSequence(cfg.Seed, rng.ExpPlanned, 0.5, plannedWindowDays(cfg))
	res, err := s.Run(seq)
	if err != nil {
		return 0, 0, err
	}
	minHealth = 1
	for _, n := range res.Nodes {
		if n.Health < minHealth {
			minHealth = n.Health
		}
	}
	return res.Throughput, minHealth, nil
}

// PerfVsDoD reproduces Fig 21: workload performance as the regulated depth
// of discharge grows from 40 % to 90 %. Deeper regulation frees more stored
// energy for compute — but sub-linearly, because very deep cycling erodes
// the battery that delivers it.
func PerfVsDoD(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dods := []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	if cfg.Quick {
		dods = []float64{0.4, 0.9}
	}
	t := &Table{
		ID:      "fig21",
		Title:   "Performance under regulated depth of discharge",
		Columns: []string{"DoD", "throughput", "gain vs 40%", "worst health"},
		Values:  map[string]float64{},
	}
	type cell struct{ thr, health float64 }
	cells := make([]cell, len(dods))
	if err := runSweep(cfg.sweepWorkers(), len(dods), func(i int) error {
		// Planned aging regulates discharge depth: floor = 1 − DoD, with
		// the slowdown trigger just above it (§IV-D replaces the 40 %
		// trigger with 1 − DoD_goal).
		spec := withOptions(cfg.treatment(), map[string]string{
			"floor":   strconv.FormatFloat(1-dods[i], 'g', -1, 64),
			"trigger": strconv.FormatFloat(clampTriggerAbove(1-dods[i]+0.10), 'g', -1, 64),
		})
		thr, health, err := runWindowThroughput(cfg, spec)
		if err != nil {
			return err
		}
		cells[i] = cell{thr, health}
		return nil
	}); err != nil {
		return nil, err
	}
	var base float64
	var prev float64
	var firstStep, lastStep float64
	for i, dod := range dods {
		thr, health := cells[i].thr, cells[i].health
		if i == 0 {
			base = thr
		}
		gain := 0.0
		if base > 0 {
			gain = thr/base - 1
		}
		t.Rows = append(t.Rows, []string{
			pct(dod), fmt.Sprintf("%.1f", thr), pct(gain), f3(health),
		})
		t.Values[fmt.Sprintf("gain_dod_%.0f", dod*100)] = gain
		if i == 1 {
			firstStep = thr - prev
		}
		if i == len(dods)-1 && i > 0 {
			lastStep = thr - prev
		}
		prev = thr
	}
	t.Values["first_step"] = firstStep
	t.Values["last_step"] = lastStep
	t.Notes = append(t.Notes,
		"paper: performance improvement is not linear in DoD — the 40→60% step",
		"is more visible than 70→90%")
	return t, nil
}

func clampTriggerAbove(x float64) float64 {
	if x < 0.15 {
		return 0.15
	}
	if x > 0.95 {
		return 0.95
	}
	return x
}

// PlannedAgingBenefit reproduces Fig 22: the productivity benefit of
// planning battery aging against the expected battery service life (the
// time from battery installation to datacenter end-of-life). The benefit
// peaks at intermediate horizons: very short horizons are capped by the
// 90 % DoD bound, very long horizons leave no unused lifetime to shift.
func PlannedAgingBenefit(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Service lives in real months, converted to compressed sim time.
	monthsList := []float64{3, 6, 12, 24, 48}
	if cfg.Quick {
		monthsList = []float64{6, 48}
	}
	t := &Table{
		ID:      "fig22",
		Title:   "Performance benefits of planned aging vs expected service life",
		Columns: []string{"service life (mo)", "planned throughput", "e-Buff throughput", "gain", "worst health"},
		Values:  map[string]float64{},
	}
	// Slot 0 is the e-Buff reference; slot i+1 is monthsList[i].
	type cell struct{ thr, health float64 }
	cells := make([]cell, 1+len(monthsList))
	if err := runSweep(cfg.sweepWorkers(), len(cells), func(i int) error {
		spec := specEBuff
		if i > 0 {
			// The Ah budget Eq 7 divides is not accelerated (only damage
			// rates are), so the planner receives the real service life:
			// its cycle plan must count real cycles.
			spec = withOptions(cfg.treatment(), map[string]string{
				"planned-months": strconv.FormatFloat(monthsList[i-1], 'g', -1, 64),
			})
		}
		thr, health, err := runWindowThroughput(cfg, spec)
		if err != nil {
			return err
		}
		cells[i] = cell{thr, health}
		return nil
	}); err != nil {
		return nil, err
	}
	eThr := cells[0].thr
	var maxGain float64
	for mi, months := range monthsList {
		thr, health := cells[mi+1].thr, cells[mi+1].health
		gain := 0.0
		if eThr > 0 {
			gain = thr/eThr - 1
		}
		if gain > maxGain {
			maxGain = gain
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", months), fmt.Sprintf("%.1f", thr),
			fmt.Sprintf("%.1f", eThr), pct(gain), f3(health),
		})
		t.Values[fmt.Sprintf("gain_months_%.0f", months)] = gain
	}
	t.Values["max_gain"] = maxGain
	t.Notes = append(t.Notes,
		"paper: planned aging improves productivity by up to 33% vs e-Buff,",
		"with benefits shrinking at both horizon extremes")
	return t, nil
}
