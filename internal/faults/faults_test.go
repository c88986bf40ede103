package faults

import (
	"reflect"
	"testing"
	"time"
)

const tick = time.Minute

// runPlan replays a plan over the given number of days and returns a deep
// copy of every tick's resolved state (the injector reuses its buffers).
func runPlan(t *testing.T, cfg Config, nodes, days int) []TickState {
	t.Helper()
	inj, err := NewInjector(cfg, nodes)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	var out []TickState
	for clock := time.Duration(0); clock < time.Duration(days)*24*time.Hour; clock += tick {
		st := inj.Tick(clock, tick)
		cp := TickState{
			PVFactor: st.PVFactor,
			Nodes:    append([]NodeFault(nil), st.Nodes...),
			Injected: append([]Injected(nil), st.Injected...),
		}
		out = append(out, cp)
	}
	return out
}

func TestRuleValidation(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		ok   bool
	}{
		{"scheduled sensor window", Rule{Kind: SensorStuck, Day: 1, At: 9 * time.Hour, Duration: time.Hour}, true},
		{"probabilistic drop", Rule{Kind: SensorDrop, Node: -1, Probability: 0.01, Duration: 5 * time.Minute}, true},
		{"scheduled one-shot without duration", Rule{Kind: BatteryCapacityLoss, Day: 2, Magnitude: 0.1}, true},
		{"unknown kind", Rule{Kind: "meteor_strike", Day: 1, Duration: time.Hour}, false},
		{"neither scheduled nor probabilistic", Rule{Kind: SensorNaN}, false},
		{"both scheduled and probabilistic", Rule{Kind: SensorNaN, Day: 1, Duration: time.Hour, Probability: 0.5}, false},
		{"negative day", Rule{Kind: SensorNaN, Day: -1}, false},
		{"probability above one", Rule{Kind: SensorDrop, Probability: 1.5}, false},
		{"start past midnight", Rule{Kind: SensorStuck, Day: 1, At: 25 * time.Hour, Duration: time.Hour}, false},
		{"scheduled window without duration", Rule{Kind: SensorStuck, Day: 1, At: time.Hour}, false},
		{"negative magnitude", Rule{Kind: SensorNoise, Probability: 0.1, Magnitude: -0.2}, false},
		{"fractional magnitude above one", Rule{Kind: PVDropout, Day: 1, Duration: time.Hour, Magnitude: 1.5}, false},
		{"node below -1", Rule{Kind: SensorNaN, Node: -2, Day: 1, Duration: time.Hour}, false},
	}
	for _, tc := range cases {
		err := tc.rule.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
}

func TestInjectorRejectsOutOfRangeTarget(t *testing.T) {
	cfg := Config{Rules: []Rule{{Kind: SensorNaN, Node: 5, Day: 1, Duration: time.Hour}}}
	if _, err := NewInjector(cfg, 3); err == nil {
		t.Fatal("expected an error for a rule targeting node 5 in a 3-node fleet")
	}
}

func TestScheduledWindowSemantics(t *testing.T) {
	cfg := Config{Seed: 1, Rules: []Rule{
		{Kind: SensorStuck, Node: 1, Day: 2, At: 9 * time.Hour, Duration: 2 * time.Hour},
	}}
	states := runPlan(t, cfg, 3, 3)
	idx := func(clock time.Duration) int { return int(clock / tick) }

	start := 24*time.Hour + 9*time.Hour
	end := start + 2*time.Hour
	for _, probe := range []struct {
		clock  time.Duration
		active bool
	}{
		{start - tick, false},
		{start, true},
		{end - tick, true},
		{end, false},
		{9 * time.Hour, false},                // same time of day, wrong day
		{2*24*time.Hour + 9*time.Hour, false}, // day after
	} {
		st := states[idx(probe.clock)]
		got := st.Nodes[1].Sensor.Mode == ModeStuck
		if got != probe.active {
			t.Errorf("clock %v: stuck=%v, want %v", probe.clock, got, probe.active)
		}
		if st.Nodes[0].Sensor.Mode != SensorOK || st.Nodes[2].Sensor.Mode != SensorOK {
			t.Errorf("clock %v: fault leaked to untargeted nodes", probe.clock)
		}
	}

	// Exactly one activation event, emitted at the window start.
	var events []Injected
	for _, st := range states {
		events = append(events, st.Injected...)
	}
	if len(events) != 1 {
		t.Fatalf("got %d activation events, want 1: %v", len(events), events)
	}
	if events[0].At != start || events[0].Until != end || events[0].Node != 1 {
		t.Errorf("activation event %+v, want at=%v until=%v node=1", events[0], start, end)
	}
}

func TestScheduledOneShotFiresOnce(t *testing.T) {
	cfg := Config{Seed: 1, Rules: []Rule{
		{Kind: BatteryCapacityLoss, Node: 0, Day: 1, At: 10 * time.Hour, Magnitude: 0.25},
	}}
	states := runPlan(t, cfg, 2, 2)
	var fades int
	for _, st := range states {
		if st.Nodes[0].CapacityFade > 0 {
			fades++
			if st.Nodes[0].CapacityFade != 0.25 {
				t.Errorf("capacity fade %v, want 0.25", st.Nodes[0].CapacityFade)
			}
		}
	}
	if fades != 1 {
		t.Fatalf("one-shot fired on %d ticks, want exactly 1", fades)
	}
}

func TestDefaultMagnitudes(t *testing.T) {
	cfg := Config{Seed: 1, Rules: []Rule{
		{Kind: PVDropout, Day: 1, At: 12 * time.Hour, Duration: time.Hour}, // default 1.0
		{Kind: BatteryPrematureEOL, Node: 0, Day: 1, At: 8 * time.Hour},    // default 0.75
	}}
	inj, err := NewInjector(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := inj.Tick(8*time.Hour, tick)
	if st.Nodes[0].TargetHealth != 0.75 {
		t.Errorf("premature-EOL target health %v, want default 0.75", st.Nodes[0].TargetHealth)
	}
	if st.PVFactor != 1 {
		t.Errorf("PV factor %v before the dropout window, want 1", st.PVFactor)
	}
	if st := inj.Tick(12*time.Hour, tick); st.PVFactor != 0 {
		t.Errorf("PV factor %v inside the default dropout window, want 0 (full dropout)", st.PVFactor)
	}
}

// TestScheduledPVDropoutSpansMidnight: a scheduled PV dropout holds
// PVFactor at 1 − magnitude for its whole window, across the day boundary,
// and releases it exactly at the window's end.
func TestScheduledPVDropoutSpansMidnight(t *testing.T) {
	// A 6-hour derating starting day 1 at 20:00 ends day 2 at 02:00.
	cfg := Config{Seed: 1, Rules: []Rule{
		{Kind: PVDropout, Day: 1, At: 20 * time.Hour, Duration: 6 * time.Hour, Magnitude: 0.5},
	}}
	start, end := 20*time.Hour, 26*time.Hour
	for i, st := range runPlan(t, cfg, 2, 3) {
		clock := time.Duration(i) * tick
		want := 1.0
		if clock >= start && clock < end {
			want = 0.5
		}
		if st.PVFactor != want {
			t.Fatalf("PV factor at %v = %v, want %v", clock, st.PVFactor, want)
		}
	}
}

func TestProbabilisticActivationHolds(t *testing.T) {
	cfg := Config{Seed: 7, Rules: []Rule{
		{Kind: SensorDrop, Node: 0, Probability: 0.01, Duration: 10 * time.Minute},
	}}
	states := runPlan(t, cfg, 1, 2)
	ticksPerHold := int(10 * time.Minute / tick)
	active := 0
	var activations int
	for _, st := range states {
		if st.Nodes[0].Sensor.Mode == ModeDrop {
			active++
		}
		activations += len(st.Injected)
	}
	if activations == 0 {
		t.Fatal("no activations over two days at p=0.01/min; seed 7 should trigger")
	}
	// Every activation holds for its full window (windows may only merge,
	// never truncate), so active tick count is at least one hold per
	// activation is wrong when windows overlap — but with p=0.01 over 2880
	// ticks overlaps are rare; sanity-check the lower bound loosely.
	if active < ticksPerHold {
		t.Errorf("fault active %d ticks across %d activations, want >= %d", active, activations, ticksPerHold)
	}
}

func TestSensorSeverityComposition(t *testing.T) {
	// Noise and drop both scheduled on the same node and window: drop wins.
	cfg := Config{Seed: 1, Rules: []Rule{
		{Kind: SensorNoise, Node: 0, Day: 1, At: 9 * time.Hour, Duration: time.Hour, Magnitude: 0.3},
		{Kind: SensorDrop, Node: 0, Day: 1, At: 9 * time.Hour, Duration: time.Hour},
	}}
	inj, err := NewInjector(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := inj.Tick(9*time.Hour+30*time.Minute, tick)
	if st.Nodes[0].Sensor.Mode != ModeDrop {
		t.Errorf("composed sensor mode %v, want drop (severest wins)", st.Nodes[0].Sensor.Mode)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	cfg, err := Profile("chaos", 99)
	if err != nil {
		t.Fatal(err)
	}
	a := runPlan(t, cfg, 6, 4)
	b := runPlan(t, cfg, 6, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seed and schedule produced diverging tick states")
	}

	// A different seed must actually change the probabilistic stream.
	cfg2 := cfg
	cfg2.Seed = 100
	c := runPlan(t, cfg2, 6, 4)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical tick states (stream not seeded?)")
	}
}

func TestProfiles(t *testing.T) {
	for _, name := range ProfileNames() {
		cfg, err := Profile(name, 1)
		if err != nil {
			t.Errorf("Profile(%q): %v", name, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("profile %q does not validate: %v", name, err)
		}
		if name == "none" && cfg.Enabled() {
			t.Error(`profile "none" must be empty`)
		}
		if name != "none" && !cfg.Enabled() {
			t.Errorf("profile %q is empty", name)
		}
	}
	if _, err := Profile("mixed", 1); err != nil {
		t.Errorf(`alias "mixed": %v`, err)
	}
	if _, err := Profile("nope", 1); err == nil {
		t.Error("unknown profile must error")
	}
}

func TestInjectedString(t *testing.T) {
	i := Injected{Kind: PVDropout, Node: -1, At: time.Hour, Until: 2 * time.Hour, Magnitude: 1}
	if got := i.String(); got == "" {
		t.Fatal("empty event rendering")
	}
	one := Injected{Kind: BatteryCapacityLoss, Node: 3, At: time.Hour, Until: time.Hour, Magnitude: 0.1}
	if got := one.String(); got == "" {
		t.Fatal("empty one-shot rendering")
	}
}
