// Package modeltest is the shared conformance suite every battery.Pack
// tier must pass. The battery package runs it against all three tiers
// (electrochemical lead-acid, linear coulomb-counting, LFP); a new
// chemistry or fidelity tier earns its place in battery.Kinds() by passing
// Run unchanged.
//
// The contract it pins, independent of chemistry:
//
//   - State of charge stays in [0, 1] and temperature stays finite under
//     arbitrary valid step schedules (property-checked via testing/quick).
//   - Health is monotone non-increasing under growing degradation and never
//     rises on its own during stepping.
//   - Every step books its terminal energy, Voltage × Charge, in the
//     counters: a discharge's in WhOut, a charge's in WhIn, with discharge
//     flows positive and charge flows negative.
//   - Every step books its duration as operating time, whether or not
//     charge moved; a discharge truncated at empty books the time current
//     flowed.
//   - Snapshot/Restore is an identity: a restored model replays a schedule
//     bit-identically to the original, and snapshotting is read-only.
//   - Corrupt snapshots are rejected wholesale without mutating the target.
//   - Non-finite or non-positive step inputs are rejected without mutating
//     state (the same contract the cross-tier fuzzer hammers).
package modeltest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/units"
)

// Factory builds a fresh pack of the tier under test. Each subtest calls
// it at least once; instances must be independent.
type Factory func(t *testing.T) *battery.Pack

// Run executes the full conformance suite against the model the factory
// builds, as subtests under the given name.
func Run(t *testing.T, name string, factory Factory) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		t.Run("SoCBounds", func(t *testing.T) { runSoCBounds(t, factory) })
		t.Run("EnergyBalance", func(t *testing.T) { runEnergyBalance(t, factory) })
		t.Run("OperatingTime", func(t *testing.T) { runOperatingTime(t, factory) })
		t.Run("HealthMonotone", func(t *testing.T) { runHealthMonotone(t, factory) })
		t.Run("SnapshotRestoreIdentity", func(t *testing.T) { runSnapshotRestore(t, factory) })
		t.Run("CorruptStateRejected", func(t *testing.T) { runCorruptState(t, factory) })
		t.Run("InputRejection", func(t *testing.T) { runInputRejection(t, factory) })
	})
}

// op is one step of a generated schedule.
type op struct {
	kind int // 0 = discharge, 1 = charge, 2 = rest
	pw   units.Watt
	dt   time.Duration
	amb  units.Celsius
}

// schedule derives a deterministic random step sequence from a seed. Powers
// span zero through well past either tier's limits, durations from seconds
// to hours, ambients from freezing rooms to hot containers — all valid
// inputs the model must absorb without leaving its envelope.
func schedule(seed int64, steps int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, steps)
	for i := range ops {
		ops[i] = op{
			kind: rng.Intn(3),
			pw:   units.Watt(rng.Float64() * 500),
			dt:   time.Second + time.Duration(rng.Float64()*float64(2*time.Hour)),
			amb:  units.Celsius(-10 + rng.Float64()*55),
		}
	}
	return ops
}

// apply executes one schedule op and returns its result.
func apply(m *battery.Pack, o op) (battery.StepResult, error) {
	switch o.kind {
	case 0:
		return m.Discharge(o.pw, o.dt, o.amb)
	case 1:
		return m.Charge(o.pw, o.dt, o.amb)
	default:
		return battery.StepResult{}, m.Rest(o.dt, o.amb)
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func runSoCBounds(t *testing.T, factory Factory) {
	check := func(seed int64) bool {
		m := factory(t)
		for _, o := range schedule(seed, 200) {
			if _, err := apply(m, o); err != nil {
				t.Logf("seed %d: valid step rejected: %v", seed, err)
				return false
			}
			if soc := m.SoC(); soc < 0 || soc > 1 || !finite(soc) {
				t.Logf("seed %d: SoC left [0, 1]: %v", seed, soc)
				return false
			}
			if !finite(float64(m.Temperature())) {
				t.Logf("seed %d: non-finite temperature %v", seed, m.Temperature())
				return false
			}
			if h := m.Health(); h <= 0 || h > 1 || !finite(h) {
				t.Logf("seed %d: health left (0, 1]: %v", seed, h)
				return false
			}
			if float64(m.EffectiveCapacity()) <= 0 {
				t.Logf("seed %d: effective capacity not positive: %v", seed, m.EffectiveCapacity())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func runEnergyBalance(t *testing.T, factory Factory) {
	m := factory(t)
	for i, o := range schedule(7, 400) {
		before := m.Counters()
		res, err := apply(m, o)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		// The ledger must book the step's terminal energy, voltage × charge
		// (the step holds voltage constant): a discharge's into WhOut, a
		// charge's into WhIn, a rest's into neither.
		after := m.Counters()
		out, in := float64(after.WhOut-before.WhOut), float64(after.WhIn-before.WhIn)
		want := float64(res.Energy())
		if diff := math.Abs(out - in - want); diff > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("step %d: counters booked %v Wh out and %v Wh in, want voltage %v × charge %v = %v",
				i, out, in, res.Voltage, res.Charge, want)
		}
		switch o.kind {
		case 0: // discharge: out-flows are non-negative
			if res.Current < 0 || res.Charge < 0 || res.Energy() < 0 || in != 0 {
				t.Fatalf("step %d: discharge produced negative flow: %+v, energy %v, %v Wh in", i, res, res.Energy(), in)
			}
		case 1: // charge: in-flows are non-positive
			if res.Current > 0 || res.Charge > 0 || res.Energy() > 0 || out != 0 {
				t.Fatalf("step %d: charge produced positive flow: %+v, energy %v, %v Wh out", i, res, res.Energy(), out)
			}
		default:
			if out != 0 || in != 0 {
				t.Fatalf("step %d: rest booked %v Wh out and %v Wh in", i, out, in)
			}
		}
	}
}

func runOperatingTime(t *testing.T, factory Factory) {
	m := factory(t)
	// From a fresh (full) model, the fixed steps reach the paths that move
	// no charge and the truncated discharge: a charge offered to a full
	// model, a zero-power discharge, a discharge beyond the power limit, a
	// long discharge that runs empty partway through, and a discharge at
	// the cut-off. The random schedule then mixes them with ordinary steps.
	ops := append([]op{
		{kind: 1, pw: 50, dt: time.Minute, amb: 25},
		{kind: 0, pw: 0, dt: time.Minute, amb: 25},
		{kind: 0, pw: 1e5, dt: time.Minute, amb: 25},
		{kind: 0, pw: 100, dt: 48 * time.Hour, amb: 25},
		{kind: 0, pw: 100, dt: time.Minute, amb: 25},
	}, schedule(13, 400)...)
	for i, o := range ops {
		before := m.Counters().OperatingTime
		res, err := apply(m, o)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got := m.Counters().OperatingTime - before
		if o.kind == 0 && res.CutOff && res.Charge > 0 {
			// Truncated at empty: current flowed for Charge/Current hours.
			flowed := time.Duration(float64(res.Charge) / float64(res.Current) * float64(time.Hour))
			if d := got - flowed; d < -time.Microsecond || d > time.Microsecond || got > o.dt {
				t.Fatalf("step %d (kind %d, %v for %v, result %+v): truncated discharge booked %v, want %v",
					i, o.kind, o.pw, o.dt, res, got, flowed)
			}
			continue
		}
		if got != o.dt {
			t.Fatalf("step %d (kind %d, %v for %v, result %+v): operating time advanced %v, want %v",
				i, o.kind, o.pw, o.dt, res, got, o.dt)
		}
	}
}

func runHealthMonotone(t *testing.T, factory Factory) {
	m := factory(t)
	prev := m.Health()
	if prev != 1 {
		t.Fatalf("fresh model health = %v, want 1", prev)
	}
	rng := rand.New(rand.NewSource(11))
	fade := 0.0
	for i := 0; i < 50; i++ {
		// Interleave stepping with growing wear: stepping alone must never
		// raise health, and applying strictly growing degradation must
		// lower it monotonically.
		for _, o := range schedule(int64(i), 5) {
			if _, err := apply(m, o); err != nil {
				t.Fatal(err)
			}
			if h := m.Health(); h > prev {
				t.Fatalf("health rose from %v to %v during stepping", prev, h)
			}
		}
		fade += rng.Float64() * 0.005
		m.ApplyDegradation(battery.Degradation{
			CapacityFade:     fade,
			ResistanceGrowth: fade * 2,
			EfficiencyLoss:   fade * 0.1,
		})
		h := m.Health()
		if h > prev {
			t.Fatalf("health rose from %v to %v under growing degradation", prev, h)
		}
		prev = h
	}
}

func runSnapshotRestore(t *testing.T, factory Factory) {
	prefix := schedule(42, 100)
	suffix := schedule(43, 100)

	orig := factory(t)
	for _, o := range prefix {
		if _, err := apply(orig, o); err != nil {
			t.Fatal(err)
		}
	}
	snap := orig.Snapshot()
	if again := orig.Snapshot(); again != snap {
		t.Fatalf("two snapshots without mutation differ:\n%+v\n%+v", snap, again)
	}

	// The original and a restored fresh instance must replay the suffix
	// bit-identically: every StepResult and the final snapshot.
	restored := factory(t)
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("restoring a valid snapshot: %v", err)
	}
	if got := restored.Snapshot(); got != snap {
		t.Fatalf("restore is not an identity:\nwant %+v\ngot  %+v", snap, got)
	}
	for i, o := range suffix {
		a, errA := apply(orig, o)
		b, errB := apply(restored, o)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("step %d: original err %v, restored err %v", i, errA, errB)
		}
		if a != b {
			t.Fatalf("step %d: replay diverged:\noriginal %+v\nrestored %+v", i, a, b)
		}
	}
	if a, b := orig.Snapshot(), restored.Snapshot(); a != b {
		t.Fatalf("final states diverged:\noriginal %+v\nrestored %+v", a, b)
	}
}

func runCorruptState(t *testing.T, factory Factory) {
	m := factory(t)
	for _, o := range schedule(5, 50) {
		if _, err := apply(m, o); err != nil {
			t.Fatal(err)
		}
	}
	good := m.Snapshot()

	corruptions := map[string]func(*battery.State){
		"soc above 1":          func(st *battery.State) { st.SoC = 2 },
		"soc below 0":          func(st *battery.State) { st.SoC = -0.1 },
		"nan soc":              func(st *battery.State) { st.SoC = math.NaN() },
		"nan temperature":      func(st *battery.State) { st.Temperature = units.Celsius(math.NaN()) },
		"absurd temperature":   func(st *battery.State) { st.Temperature = 1000 },
		"negative ah out":      func(st *battery.State) { st.AhOut = -1 },
		"inf wh in":            func(st *battery.State) { st.WhIn = units.WattHour(math.Inf(1)) },
		"negative cycles":      func(st *battery.State) { st.Cycles = -3 },
		"negative operating":   func(st *battery.State) { st.Operating = -time.Hour },
		"fade above 1":         func(st *battery.State) { st.Degradation.CapacityFade = 1.5 },
		"nan fade":             func(st *battery.State) { st.Degradation.CapacityFade = math.NaN() },
		"zero capacity scale":  func(st *battery.State) { st.CapacityScale = 0 },
		"wild resistance":      func(st *battery.State) { st.ResistanceScale = 100 },
		"negative charge wh":   func(st *battery.State) { st.WhOut = -5 },
		"efficiency loss wild": func(st *battery.State) { st.Degradation.EfficiencyLoss = 0.999 },
	}
	for name, corrupt := range corruptions {
		bad := good
		corrupt(&bad)
		before := m.Snapshot()
		if err := m.Restore(bad); err == nil {
			t.Errorf("%s: corrupt state restored without error", name)
		}
		if after := m.Snapshot(); after != before {
			t.Errorf("%s: failed restore mutated the model:\nbefore %+v\nafter  %+v", name, before, after)
		}
	}
}

func runInputRejection(t *testing.T, factory Factory) {
	m := factory(t)
	// Establish some non-trivial state first.
	for _, o := range schedule(9, 20) {
		if _, err := apply(m, o); err != nil {
			t.Fatal(err)
		}
	}

	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]op{
		"nan discharge power":  {kind: 0, pw: units.Watt(nan), dt: time.Minute, amb: 25},
		"inf discharge power":  {kind: 0, pw: units.Watt(inf), dt: time.Minute, amb: 25},
		"negative discharge":   {kind: 0, pw: -10, dt: time.Minute, amb: 25},
		"zero dt discharge":    {kind: 0, pw: 50, dt: 0, amb: 25},
		"negative dt":          {kind: 0, pw: 50, dt: -time.Minute, amb: 25},
		"nan ambient":          {kind: 0, pw: 50, dt: time.Minute, amb: units.Celsius(nan)},
		"nan charge power":     {kind: 1, pw: units.Watt(nan), dt: time.Minute, amb: 25},
		"negative charge":      {kind: 1, pw: -10, dt: time.Minute, amb: 25},
		"inf charge ambient":   {kind: 1, pw: 50, dt: time.Minute, amb: units.Celsius(inf)},
		"zero dt rest":         {kind: 2, dt: 0, amb: 25},
		"nan rest ambient":     {kind: 2, dt: time.Minute, amb: units.Celsius(nan)},
		"neg inf charge power": {kind: 1, pw: units.Watt(math.Inf(-1)), dt: time.Minute, amb: 25},
	}
	for name, o := range cases {
		before := m.Snapshot()
		res, err := apply(m, o)
		if err == nil {
			t.Errorf("%s: invalid input accepted (result %+v)", name, res)
		}
		if res != (battery.StepResult{}) {
			t.Errorf("%s: rejected step returned non-zero result %+v", name, res)
		}
		if after := m.Snapshot(); after != before {
			t.Errorf("%s: rejected step mutated state:\nbefore %+v\nafter  %+v", name, before, after)
		}
	}
}
