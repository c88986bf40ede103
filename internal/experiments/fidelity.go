package experiments

// The battery-model experiments beyond the paper's artifact list:
//
//   - ModelFidelity ("model-fidelity") is the fidelity-vs-accuracy
//     harness. It replays the same multi-day scenario — clean and under
//     the chaos fault profile — once per battery model tier and reports
//     each tier's headline metrics side by side, plus the relative error
//     of the cheap linear tier against the electrochemical lead-acid
//     reference. This is the number that tells you when the linear tier
//     is good enough for a capacity-planning sweep (it runs the same
//     physics loop with no Peukert solve, no sag, no thermal model).
//     The LFP column is informational: a different chemistry is expected
//     to behave differently, not to approximate lead-acid.
//
//   - MixedFleet ("mixed-fleet") runs the retrofit scenario: half the
//     fleet on legacy lead-acid, half on LFP retrofits (sim.BatteryFleet),
//     under each policy. LFP's flat OCV and cycle tolerance mean the two
//     halves age at different speeds — exactly the variation BAAT's
//     hiding/slowdown machinery is supposed to manage — so the table
//     reports per-chemistry health alongside the usual policy metrics.

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/rng"
	"github.com/green-dc/baat/internal/sim"
	"github.com/green-dc/baat/internal/solar"
)

// fidelityCell is one tier's summary over one scenario replay.
type fidelityCell struct {
	throughput float64
	meanHealth float64
	meanSoC    float64
	lowSoCHrs  float64
	ahOut      float64
}

// runTier replays the weather sequence under one battery model tier.
func runTier(cfg Config, kind battery.Kind, chaos bool, seq []solar.Weather) (fidelityCell, error) {
	tcfg := cfg
	tcfg.BatteryModel = kind
	if chaos {
		fcfg, err := faults.Profile("chaos", 0)
		if err != nil {
			return fidelityCell{}, err
		}
		tcfg.Faults = fcfg
	}
	s, err := prototypeSim(tcfg, cfg.treatment())
	if err != nil {
		return fidelityCell{}, err
	}
	var cell fidelityCell
	for _, w := range seq {
		ds, err := s.RunDay(w)
		if err != nil {
			return fidelityCell{}, err
		}
		cell.throughput += ds.Throughput
		cell.lowSoCHrs += ds.LowSoCTime.Hours()
	}
	nodes := s.Nodes()
	for _, n := range nodes {
		cell.meanHealth += n.Battery().Health()
		cell.meanSoC += n.Battery().SoC()
		cell.ahOut += float64(n.Battery().Counters().AhOut)
	}
	if len(nodes) > 0 {
		cell.meanHealth /= float64(len(nodes))
		cell.meanSoC /= float64(len(nodes))
	}
	return cell, nil
}

// ModelFidelity is the "model-fidelity" experiment: every battery model
// tier replays identical clean and chaos scenarios; the table reports each
// tier's metrics and the linear tier's error against the electrochemical
// reference.
func ModelFidelity(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	days := 12
	if cfg.Quick {
		days = 4
	}
	seq := weatherSequence(cfg.Seed, rng.ExpFidelity, 0.5, days)

	tiers := battery.Kinds()
	scenarios := []struct {
		name  string
		chaos bool
	}{{"clean", false}, {"chaos", true}}

	type slot struct {
		cell fidelityCell
		err  error
	}
	cells := make([]slot, len(tiers)*len(scenarios))
	if err := runSweep(cfg.sweepWorkers(), len(cells), func(i int) error {
		tier := tiers[i%len(tiers)]
		sc := scenarios[i/len(tiers)]
		cell, err := runTier(cfg, tier, sc.chaos, seq)
		cells[i] = slot{cell, err}
		return err
	}); err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "model-fidelity",
		Title: "Battery model fidelity tiers vs the electrochemical reference (BAAT policy)",
		Columns: []string{
			"scenario", "model", "throughput", "mean health", "mean SoC", "low-SoC h", "Ah out",
		},
		Values: map[string]float64{},
	}
	relErr := func(a, b float64) float64 {
		return math.Abs(a-b) / math.Max(math.Abs(b), 1e-12)
	}
	for si, sc := range scenarios {
		byTier := map[battery.Kind]fidelityCell{}
		for ti, tier := range tiers {
			cell := cells[si*len(tiers)+ti].cell
			byTier[tier] = cell
			t.Rows = append(t.Rows, []string{
				sc.name, string(tier),
				fmt.Sprintf("%.1f", cell.throughput),
				f3(cell.meanHealth), f3(cell.meanSoC),
				f2(cell.lowSoCHrs), fmt.Sprintf("%.1f", cell.ahOut),
			})
			prefix := sc.name + "_" + string(tier)
			t.Values[prefix+"_throughput"] = cell.throughput
			t.Values[prefix+"_health"] = cell.meanHealth
		}
		ref, lin := byTier[battery.KindLeadAcid], byTier[battery.KindLinear]
		t.Values[sc.name+"_linear_throughput_err"] = relErr(lin.throughput, ref.throughput)
		t.Values[sc.name+"_linear_health_err"] = math.Abs(lin.meanHealth - ref.meanHealth)
		t.Values[sc.name+"_linear_ahout_err"] = relErr(lin.ahOut, ref.ahOut)
		t.Rows = append(t.Rows, []string{
			sc.name, "linear vs ref",
			pct(t.Values[sc.name+"_linear_throughput_err"]) + " err",
			f3(t.Values[sc.name+"_linear_health_err"]) + " err", "-", "-",
			pct(t.Values[sc.name+"_linear_ahout_err"]) + " err",
		})
	}
	t.Notes = append(t.Notes,
		"linear tier: coulomb counting, no Peukert/sag/thermal — error columns quantify the fidelity trade",
		"lfp row is a different chemistry, not an approximation of the reference",
		"the cross-fidelity golden test pins these errors with tolerances on the 30-day fixtures")
	return t, nil
}

// MixedFleet is the "mixed-fleet" experiment: a 50/50 lead-acid + LFP
// retrofit fleet under each policy, reporting whole-fleet results plus
// per-chemistry health so the cross-chemistry aging gap is visible.
func MixedFleet(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	days := 12
	if cfg.Quick {
		days = 4
	}
	seq := weatherSequence(cfg.Seed, rng.ExpMixedFleet, 0.5, days)

	type cell struct {
		throughput  float64
		lowSoCHrs   float64
		leadHealth  float64 // mean health of the lead-acid block
		lfpHealth   float64 // mean health of the LFP block
		worstHealth float64
	}
	cells := make([]cell, len(table4))
	if err := runSweep(cfg.sweepWorkers(), len(table4), func(i int) error {
		s, err := prototypeSim(cfg, table4[i], func(c *sim.Config) {
			c.BatteryFleet = []sim.BatteryShare{
				{Model: battery.KindLeadAcid, Fraction: 0.5},
				{Model: battery.KindLFP, Fraction: 0.5},
			}
		})
		if err != nil {
			return err
		}
		var c cell
		for _, w := range seq {
			ds, err := s.RunDay(w)
			if err != nil {
				return err
			}
			c.throughput += ds.Throughput
			c.lowSoCHrs += ds.LowSoCTime.Hours()
		}
		c.worstHealth = 1
		var nLead, nLFP int
		for _, n := range s.Nodes() {
			h := n.Battery().Health()
			if h < c.worstHealth {
				c.worstHealth = h
			}
			switch n.Battery().Kind() {
			case battery.KindLFP:
				c.lfpHealth += h
				nLFP++
			default:
				c.leadHealth += h
				nLead++
			}
		}
		if nLead > 0 {
			c.leadHealth /= float64(nLead)
		}
		if nLFP > 0 {
			c.lfpHealth /= float64(nLFP)
		}
		cells[i] = c
		return nil
	}); err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "mixed-fleet",
		Title: "Mixed lead-acid + LFP retrofit fleet under each policy (50/50 split)",
		Columns: []string{
			"policy", "throughput", "low-SoC time", "lead-acid health", "lfp health", "worst health",
		},
		Values: map[string]float64{},
	}
	for i, spec := range table4 {
		c := cells[i]
		t.Rows = append(t.Rows, []string{
			label(spec),
			fmt.Sprintf("%.1f", c.throughput),
			(time.Duration(c.lowSoCHrs * float64(time.Hour))).Round(time.Minute).String(),
			f3(c.leadHealth), f3(c.lfpHealth), f3(c.worstHealth),
		})
		t.Values[label(spec)+"_throughput"] = c.throughput
		t.Values[label(spec)+"_worst_health"] = c.worstHealth
		t.Values[label(spec)+"_lead_health"] = c.leadHealth
		t.Values[label(spec)+"_lfp_health"] = c.lfpHealth
	}
	t.Notes = append(t.Notes,
		"50/50 contiguous split via sim.Config.BatteryFleet: nodes 0-2 lead-acid, 3-5 LFP on the prototype fleet",
		"LFP's calendar+cycle curves age slower than VRLA under the same duty — the gap the aging-aware policies must manage")
	return t, nil
}
