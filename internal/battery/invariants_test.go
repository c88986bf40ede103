package battery

// Property-based invariants over the electrochemical model, driven by
// testing/quick: whatever sequence of discharge/charge/rest operations a
// policy throws at a pack — at any power, duration, or temperature — the
// state of charge stays in [0, 1] and every step's charge/energy
// bookkeeping balances. These are the physical guarantees the parallel
// fleet stepping and the aging layer both build on. The health-monotone
// property lives in monotone_ext_test.go (package battery_test) because it
// drives the pack through aging.Model, which imports this package.

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"github.com/green-dc/baat/internal/units"
)

// quickConfig bounds the number of random sequences per property.
func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 60}
}

// randomStep applies one randomized operation to the pack and returns the
// realized step result (zero for rest).
func randomStep(rng *rand.Rand, p *Pack) (StepResult, time.Duration, error) {
	dt := time.Duration(1+rng.IntN(120)) * time.Second * 30 // 30 s – 1 h
	amb := units.Celsius(-10 + rng.Float64()*55)
	pw := units.Watt(rng.Float64() * 2000)
	switch rng.IntN(3) {
	case 0:
		res, err := p.Discharge(pw, dt, amb)
		return res, dt, err
	case 1:
		res, err := p.Charge(pw, dt, amb)
		return res, dt, err
	default:
		p.Rest(dt, amb)
		return StepResult{}, dt, nil
	}
}

// TestQuickSoCBounds: no operation sequence can push SoC outside [0, 1] or
// the case temperature outside its physical clamp.
func TestQuickSoCBounds(t *testing.T) {
	prop := func(seed int64, initialSoC float64) bool {
		rng := rand.New(rand.NewPCG(uint64(seed), 0))
		p, err := New(DefaultSpec(), WithInitialSoC(math.Abs(math.Mod(initialSoC, 1))))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			if _, _, err := randomStep(rng, p); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
			if soc := p.SoC(); soc < 0 || soc > 1 || math.IsNaN(soc) {
				t.Logf("seed %d step %d: SoC %v out of [0,1]", seed, i, soc)
				return false
			}
			if temp := float64(p.Temperature()); temp < -20 || temp > 90 {
				t.Logf("seed %d step %d: temperature %v outside clamp", seed, i, temp)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickConfig()); err != nil {
		t.Error(err)
	}
}

// TestQuickStepBalance: per-step bookkeeping balances. For a discharge the
// energy at the terminals equals voltage × charge and the SoC drop equals
// the charge drawn over Peukert-adjusted capacity; for a charge the SoC
// rise equals the accepted charge derated by coulombic efficiency over
// capacity — losses are exactly the modeled conversion terms, nothing
// leaks.
func TestQuickStepBalance(t *testing.T) {
	const tol = 1e-9
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewPCG(uint64(seed), 0))
		p, err := New(DefaultSpec(), WithInitialSoC(0.2+0.6*rng.Float64()))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			dt := time.Duration(1+rng.IntN(120)) * time.Second * 30
			amb := units.Celsius(25)
			pw := units.Watt(rng.Float64() * 1500)
			socBefore := p.SoC()
			countersBefore := p.Counters()
			var res StepResult
			discharging := rng.IntN(2) == 0
			if discharging {
				res, err = p.Discharge(pw, dt, amb)
			} else {
				res, err = p.Charge(pw, dt, amb)
			}
			if err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
			counters := p.Counters()
			if res.Charge == 0 {
				// No charge moved at the terminals (cutoff trip, zero
				// power, or full pack): the step degenerates to rest, so
				// the only SoC movement is modeled self-discharge.
				sdf := p.Spec().SelfDischargeFraction
				wantDrop := socBefore * (1 - math.Pow(1-sdf, dt.Hours()/24))
				if drop := socBefore - p.SoC(); math.Abs(drop-wantDrop) > tol {
					t.Logf("seed %d step %d: rest-path SoC drop %v, want self-discharge %v", seed, i, drop, wantDrop)
					return false
				}
				continue
			}
			if discharging {
				// Terminal energy booking and SoC/charge balance.
				if wantE := float64(res.Energy()); math.Abs(float64(counters.WhOut-countersBefore.WhOut)-wantE) > tol*math.Max(1, math.Abs(wantE)) {
					t.Logf("seed %d step %d: WhOut counter moved %v, want V*Q %v", seed, i, counters.WhOut-countersBefore.WhOut, wantE)
					return false
				}
				if d := float64(counters.AhOut-countersBefore.AhOut) - float64(res.Charge); math.Abs(d) > tol {
					t.Logf("seed %d step %d: AhOut counter drifted by %v", seed, i, d)
					return false
				}
				cap := p.capacityAt(res.Current)
				if cap > 0 {
					wantDrop := float64(res.Charge) / float64(cap)
					if drop := socBefore - p.SoC(); math.Abs(drop-wantDrop) > tol {
						t.Logf("seed %d step %d: SoC drop %v, want %v", seed, i, drop, wantDrop)
						return false
					}
				}
			} else {
				dq := -float64(res.Charge) // accepted charge, Ah
				if dq < 0 {
					t.Logf("seed %d step %d: charge step emitted positive charge %v", seed, i, res.Charge)
					return false
				}
				if d := float64(counters.AhIn-countersBefore.AhIn) - dq; math.Abs(d) > tol {
					t.Logf("seed %d step %d: AhIn counter drifted by %v", seed, i, d)
					return false
				}
				eff := p.Spec().CoulombicEfficiency
				if cap := p.EffectiveCapacity(); cap > 0 && p.SoC() < 1 {
					wantRise := dq * eff / float64(cap)
					if rise := p.SoC() - socBefore; math.Abs(rise-wantRise) > tol {
						t.Logf("seed %d step %d: SoC rise %v, want %v (stored = accepted × η)", seed, i, rise, wantRise)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickConfig()); err != nil {
		t.Error(err)
	}
}
