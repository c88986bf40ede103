package baat_test

// End-to-end invariants across the whole stack: every Table 4 policy runs
// the same simulated week, and physical/accounting invariants must hold
// regardless of policy decisions.

import (
	"math/rand/v2"
	"testing"
	"time"

	baat "github.com/green-dc/baat"
)

func weekSequence(t *testing.T) []baat.Weather {
	t.Helper()
	rng := rand.New(rand.NewPCG(uint64(2024), 0))
	loc := baat.Location{SunshineFraction: 0.5}
	seq := make([]baat.Weather, 7)
	for i := range seq {
		seq[i] = loc.DrawWeather(rng)
	}
	return seq
}

func runWeek(t *testing.T, policy string) *baat.SimResult {
	t.Helper()
	cfg := baat.DefaultSimConfig()
	cfg.Policy = baat.PolicySpec{Name: policy}
	cfg.Services = baat.PrototypeServices()
	cfg.JobsPerDay = 2
	cfg.Node.AgingConfig.AccelFactor = 10
	sim, err := baat.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(weekSequence(t))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIntegrationInvariantsEveryPolicy(t *testing.T) {
	for _, info := range baat.RegisteredPolicies() {
		t.Run(info.Name, func(t *testing.T) {
			res := runWeek(t, info.Name)

			if res.Throughput <= 0 {
				t.Fatal("a week of work produced no throughput")
			}
			var dayTotal float64
			for _, d := range res.Days {
				if d.Throughput < 0 || d.SolarEnergy < 0 {
					t.Fatalf("negative accounting on day %d: %+v", d.Day, d)
				}
				// Solar consumption cannot exceed the day's potential:
				// even a sunny day at the 1.5× harness scale is 12 kWh.
				if float64(d.SolarEnergy) > 1.5*float64(baat.DailyBudget(baat.Sunny))*1.01 {
					t.Errorf("day %d used %v solar, above the physical budget", d.Day, d.SolarEnergy)
				}
				if d.LowSoCTime > 10*time.Hour || d.Downtime > 10*time.Hour {
					t.Errorf("day %d exceeds the operating window: low=%v down=%v", d.Day, d.LowSoCTime, d.Downtime)
				}
				dayTotal += d.Throughput
			}
			if diff := dayTotal - res.Throughput; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("per-day throughput (%v) does not sum to total (%v)", dayTotal, res.Throughput)
			}

			for _, n := range res.Nodes {
				m := n.Metrics
				if n.Health <= 0 || n.Health > 1 {
					t.Errorf("node %s health out of range: %v", n.ID, n.Health)
				}
				if n.SoC < 0 || n.SoC > 1 {
					t.Errorf("node %s SoC out of range: %v", n.ID, n.SoC)
				}
				if m.NAT < 0 || m.DDT < 0 || m.DDT > 1 {
					t.Errorf("node %s metrics out of range: %+v", n.ID, m)
				}
				if m.PC != 0 && (m.PC < 0.25 || m.PC > 1) {
					t.Errorf("node %s PC out of range: %v", n.ID, m.PC)
				}
				// Battery accounting: charge in/out counters are monotone
				// by construction; a week of operation must have moved
				// charge both ways.
				if n.Counters.AhOut <= 0 || n.Counters.AhIn <= 0 {
					t.Errorf("node %s never cycled: %+v", n.ID, n.Counters)
				}
			}

			// Every node is sampled once per in-window tick (the default
			// window's edges fall on tick boundaries), and every sample
			// lands in a bin.
			cfg := baat.DefaultSimConfig()
			ticks := int64((cfg.WindowEnd - cfg.WindowStart) / cfg.Tick)
			want := int64(len(res.Days)) * ticks * int64(cfg.Nodes)
			if got := res.SoCHistogram.Total(); got != want {
				t.Errorf("SoC histogram holds %d samples, want %d (days × in-window ticks × nodes)", got, want)
			}
		})
	}
}

func TestIntegrationBAATHealthierThanEBuff(t *testing.T) {
	// The headline claim, end to end through the public API: after an
	// identical stressful week, BAAT's worst battery is healthier than
	// e-Buff's.
	worst := func(res *baat.SimResult) float64 {
		w := 1.0
		for _, n := range res.Nodes {
			if n.Health < w {
				w = n.Health
			}
		}
		return w
	}
	eb := runWeek(t, "ebuff")
	ba := runWeek(t, "baat")
	if worst(ba) < worst(eb) {
		t.Errorf("BAAT worst health %.4f below e-Buff %.4f", worst(ba), worst(eb))
	}
}

func TestIntegrationDeterministicPublicRun(t *testing.T) {
	a := runWeek(t, "baat")
	b := runWeek(t, "baat")
	if a.Throughput != b.Throughput {
		t.Errorf("same configuration diverged: %v vs %v", a.Throughput, b.Throughput)
	}
	for i := range a.Nodes {
		if a.Nodes[i].Metrics != b.Nodes[i].Metrics {
			t.Errorf("node %d metrics diverged", i)
		}
	}
}
