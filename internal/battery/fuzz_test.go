package battery_test

// FuzzModelStep drives the step surface of every battery model tier —
// electrochemical lead-acid, linear coulomb-counting, and LFP — through one
// shared corpus of adversarial (power, duration, ambient) inputs. One
// corpus, all chemistries: an input that trips one tier is automatically
// replayed against the others, so the tiers cannot drift apart in what
// they accept.
//
// The contract under fuzz, identical for every tier: a step input is
// either rejected with an error and leaves the model untouched (NaN/Inf
// power or ambient, non-positive duration), or it is absorbed and the
// model stays inside its physical envelope — SoC in [0, 1], finite
// temperature and voltages, finite non-negative usage counters.
//
// CI runs a short smoke via check.sh; hunt longer locally with:
//
//	go test ./internal/battery -fuzz=FuzzModelStep -fuzztime=5m

import (
	"math"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/units"
)

// checkEnvelope fails the run if a model left its physical envelope.
func checkEnvelope(t *testing.T, kind battery.Kind, m *battery.Pack) {
	t.Helper()
	fin := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: %s = %v (non-finite)", kind, name, v)
		}
	}
	if soc := m.SoC(); soc < 0 || soc > 1 || math.IsNaN(soc) {
		t.Fatalf("%s: SoC = %v, want [0, 1]", kind, soc)
	}
	fin("temperature", float64(m.Temperature()))
	fin("open-circuit voltage", float64(m.OpenCircuitVoltage()))
	fin("max discharge power", float64(m.MaxDischargePower()))
	fin("max charge power", float64(m.MaxChargePower()))
	c := m.Counters()
	for name, v := range map[string]float64{
		"ah out": float64(c.AhOut), "ah in": float64(c.AhIn),
		"wh out": float64(c.WhOut), "wh in": float64(c.WhIn),
		"cycles": c.EquivalentFullCycles,
	} {
		fin(name, v)
		if v < 0 {
			t.Fatalf("%s: %s = %v (negative)", kind, name, v)
		}
	}
}

func FuzzModelStep(f *testing.F) {
	// Seeds cover the shared boundaries: routine steps, zero power, the
	// cutoff region, implausibly large power, sub-second and multi-month
	// durations, freezing and scorching ambients, and the non-finite and
	// non-positive inputs every tier must reject.
	f.Add(80.0, int64(time.Minute), 25.0, 60.0)
	f.Add(0.0, int64(time.Hour), 25.0, 0.0)
	f.Add(1e9, int64(time.Minute), 25.0, 1e9)
	f.Add(50.0, int64(time.Second), -30.0, 50.0)
	f.Add(50.0, int64(90*24)*int64(time.Hour), 45.0, 50.0)
	f.Add(math.NaN(), int64(time.Minute), 25.0, 60.0)
	f.Add(math.Inf(1), int64(time.Minute), 25.0, math.Inf(-1))
	f.Add(60.0, int64(0), 25.0, 60.0)
	f.Add(60.0, int64(-time.Hour), 25.0, 60.0)
	f.Add(60.0, int64(time.Minute), math.NaN(), 60.0)
	f.Add(-5.0, int64(time.Minute), 25.0, -5.0)
	f.Add(1e-300, int64(1), 89.9, 1e-300)

	f.Fuzz(func(t *testing.T, dischargeW float64, dtNS int64, amb float64, chargeW float64) {
		dt := time.Duration(dtNS)
		for _, kind := range battery.Kinds() {
			spec, err := battery.DefaultSpecFor(kind)
			if err != nil {
				t.Fatal(err)
			}
			m, err := battery.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			before := m.Snapshot()
			if _, err := m.Discharge(units.Watt(dischargeW), dt, units.Celsius(amb)); err != nil {
				if after := m.Snapshot(); after != before {
					t.Fatalf("%s: rejected discharge mutated state", kind)
				}
			}
			checkEnvelope(t, kind, m)

			before = m.Snapshot()
			if _, err := m.Charge(units.Watt(chargeW), dt, units.Celsius(amb)); err != nil {
				if after := m.Snapshot(); after != before {
					t.Fatalf("%s: rejected charge mutated state", kind)
				}
			}
			checkEnvelope(t, kind, m)

			before = m.Snapshot()
			if err := m.Rest(dt, units.Celsius(amb)); err != nil {
				if after := m.Snapshot(); after != before {
					t.Fatalf("%s: rejected rest mutated state", kind)
				}
			}
			checkEnvelope(t, kind, m)

			// Whatever the inputs did, the surviving state must round-trip.
			snap := m.Snapshot()
			fresh, err := battery.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Restore(snap); err != nil {
				t.Fatalf("%s: surviving state rejected by Restore: %v", kind, err)
			}
		}
	})
}
