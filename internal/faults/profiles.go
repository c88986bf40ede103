package faults

import (
	"fmt"
	"slices"
	"time"
)

// sensorRules is the DAQ-glitch regime of the prototype — one morning of a
// stuck front sensor, a midday NaN burst, plus a light probabilistic mix of
// noisy and dropped readings across the fleet.
func sensorRules() []Rule {
	return []Rule{
		{Kind: SensorStuck, Node: 0, Day: 2, At: 9 * time.Hour, Duration: 2 * time.Hour},
		{Kind: SensorNaN, Node: 1, Day: 3, At: 12 * time.Hour, Duration: 30 * time.Minute},
		{Kind: SensorNoise, Node: -1, Probability: 0.002, Duration: 15 * time.Minute, Magnitude: 0.25},
		{Kind: SensorDrop, Node: -1, Probability: 0.001, Duration: 10 * time.Minute},
	}
}

// batteryRules are mid-study cell failures — a sudden capacity step on one
// node, resistance growth on another, and a premature end-of-life.
func batteryRules() []Rule {
	return []Rule{
		{Kind: BatteryCapacityLoss, Node: 0, Day: 3, At: 10 * time.Hour, Magnitude: 0.08},
		{Kind: BatteryResistanceGrowth, Node: 1, Day: 5, At: 14 * time.Hour, Magnitude: 0.6},
		{Kind: BatteryPrematureEOL, Node: 2, Day: 8, At: 11 * time.Hour, Magnitude: 0.78},
	}
}

// powerRules are supply-side trouble — a scheduled half-day PV derating,
// short probabilistic generation dips, and a utility brownout window.
func powerRules() []Rule {
	return []Rule{
		{Kind: PVDropout, Day: 2, At: 11 * time.Hour, Duration: 3 * time.Hour, Magnitude: 0.6},
		{Kind: PVDropout, Probability: 0.003, Duration: 20 * time.Minute, Magnitude: 0.8},
		{Kind: UtilityBrownout, Node: -1, Day: 4, At: 9 * time.Hour, Duration: 4 * time.Hour},
	}
}

// chaosRules compose everything at once, at the intensities of the
// individual profiles — the schedule the chaos-smoke CI step and the
// faulted golden trace pin down.
func chaosRules() []Rule {
	var rules []Rule
	rules = append(rules, sensorRules()...)
	rules = append(rules, batteryRules()...)
	return append(rules, powerRules()...)
}

// profiles are the named fault plans the -faults flag on baatsim/baatbench
// selects. "none" is the clean path: no rules, no injector.
var profiles = map[string]func() []Rule{
	"none":    func() []Rule { return nil },
	"sensor":  sensorRules,
	"battery": batteryRules,
	"power":   powerRules,
	"chaos":   chaosRules,
}

// Profile returns the named fault plan with the given injector seed. The
// seed is attached here so the same plan replays differently (but still
// deterministically) under different -faults-seed values. "mixed" is
// accepted as an alias for "chaos".
func Profile(name string, seed int64) (Config, error) {
	if name == "mixed" {
		name = "chaos"
	}
	build, ok := profiles[name]
	if !ok {
		return Config{}, fmt.Errorf("faults: unknown profile %q (have %v)", name, ProfileNames())
	}
	return Config{Seed: seed, Rules: build()}, nil
}

// ProfileNames lists the selectable profiles in sorted order.
func ProfileNames() []string {
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
