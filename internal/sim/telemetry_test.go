package sim

import (
	"testing"
	"time"

	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/telemetry"
)

// telemetrySim builds a simulator with its own recorder under harsh
// conditions: accelerated aging, a tight PV array, and default services, so
// batteries spend real time below the slowdown trigger.
func telemetrySim(t *testing.T, policy string) (*Simulator, *telemetry.Recorder) {
	t.Helper()
	rec := telemetry.NewRecorder()
	s := newSim(t, policy, func(c *Config) {
		c.Telemetry = rec
		c.Node.AgingConfig.AccelFactor = 50
		c.Solar.Scale = 0.8
		c.JobsPerDay = 6
	})
	return s, rec
}

// stressWeather is a battery-punishing sequence: rain drains the bank and
// the lone cloudy day cannot refill it.
var stressWeather = []solar.Weather{
	solar.Rainy, solar.Rainy, solar.Cloudy, solar.Rainy, solar.Rainy,
}

// TestTelemetryPolicyDivergence is the acceptance check for the telemetry
// subsystem: on an identical trace, e-Buff (which never migrates nor caps
// frequency) and BAAT (which does both, Figs 8/9) must produce different
// policy counters while agreeing on the pure engine counters.
func TestTelemetryPolicyDivergence(t *testing.T) {
	ebuffSim, ebuffRec := telemetrySim(t, "ebuff")
	baatSim, baatRec := telemetrySim(t, "baat")

	if _, err := ebuffSim.Run(stressWeather); err != nil {
		t.Fatal(err)
	}
	if _, err := baatSim.Run(stressWeather); err != nil {
		t.Fatal(err)
	}

	ebuff := ebuffRec.Snapshot()
	baat := baatRec.Snapshot()

	// Engine counters must match exactly: same days, same tick count.
	for _, name := range []string{telemetry.MetricSimTicks, telemetry.MetricSimDays} {
		if e, b := ebuff.Counter(name), baat.Counter(name); e != b {
			t.Errorf("%s: ebuff %d != baat %d (engines diverged)", name, e, b)
		}
	}
	if got, want := baat.Counter(telemetry.MetricSimDays), int64(len(stressWeather)); got != want {
		t.Errorf("days = %d, want %d", got, want)
	}

	// e-Buff is aging-oblivious: it never issues migrations or DVFS caps.
	for _, name := range []string{
		telemetry.MetricMigrations,
		telemetry.MetricDVFSCaps,
		telemetry.MetricDVFSRestores,
	} {
		if got := ebuff.Counter(name); got != 0 {
			t.Errorf("ebuff %s = %d, want 0", name, got)
		}
	}

	// BAAT must have actually managed the fleet on this trace.
	migrations := baat.Counter(telemetry.MetricMigrations)
	caps := baat.Counter(telemetry.MetricDVFSCaps)
	if migrations+caps == 0 {
		t.Fatalf("BAAT issued no migrations and no DVFS caps on a stress trace (migrations=%d caps=%d)",
			migrations, caps)
	}

	// And the actions must be visible in the event trace.
	policyEvents := func(evs []telemetry.Event) int {
		var n int
		for _, ev := range evs {
			if ev.Type == telemetry.EventMigration || ev.Type == telemetry.EventDVFSCap {
				n++
			}
		}
		return n
	}
	if policyEvents(baat.Events) == 0 {
		t.Error("BAAT counters moved but no migration/DVFS events were traced")
	}
	if got := policyEvents(ebuff.Events); got != 0 {
		t.Errorf("ebuff traced %d policy events, want 0", got)
	}
}

// TestTelemetryEngineCounters pins the engine-side counters to values
// derivable from the configuration.
func TestTelemetryEngineCounters(t *testing.T) {
	rec := telemetry.NewRecorder()
	s := newSim(t, "baat", func(c *Config) { c.Telemetry = rec })
	if _, err := s.RunDay(solar.Sunny); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()

	ticksPerDay := int64(24 * time.Hour / DefaultConfig().Tick)
	if got := snap.Counter(telemetry.MetricSimTicks); got != ticksPerDay {
		t.Errorf("ticks = %d, want %d", got, ticksPerDay)
	}
	if got := snap.Counter(telemetry.MetricSimDays); got != 1 {
		t.Errorf("days = %d, want 1", got)
	}
	if got := snap.Counter(telemetry.MetricSimJobsSubmitted); got == 0 {
		t.Error("no jobs submitted")
	}
	if got := snap.Counter(telemetry.MetricSimPlacements); got == 0 {
		t.Error("no placements recorded")
	}
	// The clock gauge refreshes at control periods, so after one day it
	// holds the last in-window control time (within the operating window).
	clock := snap.Gauge(telemetry.MetricSimClockSeconds)
	if clock < DefaultConfig().WindowStart.Seconds() || clock > (24*time.Hour).Seconds() {
		t.Errorf("clock gauge = %v, want within the first day's window", clock)
	}

	soc, ok := snap.Histograms[telemetry.MetricSoC]
	if !ok {
		t.Fatal("SoC histogram missing")
	}
	// One in-window sample per node per tick: 10 h window, 6 nodes.
	window := DefaultConfig().WindowEnd - DefaultConfig().WindowStart
	want := int64(window/DefaultConfig().Tick) * int64(DefaultConfig().Nodes)
	if soc.Count != want {
		t.Errorf("SoC samples = %d, want %d", soc.Count, want)
	}
	// Seven finite bounds are the seven bins of Fig 19; SoC never exceeds
	// 1.0 so the implicit +Inf overflow bucket stays empty.
	if len(soc.Bounds) != 7 {
		t.Errorf("SoC histogram has %d bounds, want 7", len(soc.Bounds))
	}
	if overflow := soc.Counts[len(soc.Counts)-1]; overflow != 0 {
		t.Errorf("SoC overflow bucket = %d, want 0", overflow)
	}

	if got := snap.Gauge(telemetry.MetricFleetMinHealth); got <= 0 || got > 1 {
		t.Errorf("fleet min health gauge = %v, want in (0, 1]", got)
	}
}

// TestFleetGaugesMatchNodes pins the min-health, mean-SoC and suspect
// gauges to a direct node-order scan of the fleet after a 12-node chaos
// day, and requires the same bits from a two-node-shard parallel layout:
// the gauges read the nodes, not the shard tallies.
func TestFleetGaugesMatchNodes(t *testing.T) {
	chaos, err := faults.Profile("chaos", 0)
	if err != nil {
		t.Fatal(err)
	}
	// A sensor dropout over midnight keeps one node quarantined when the
	// day's last control period reads the suspect count.
	chaos.Rules = append(chaos.Rules, faults.Rule{
		Kind: faults.SensorDrop, Node: 5, Day: 1, At: 23 * time.Hour, Duration: 2 * time.Hour,
	})
	gauges := func(layout func(*Config)) ([3]float64, *Simulator) {
		rec := telemetry.NewRecorder()
		s := newSim(t, "baat", func(c *Config) {
			c.Nodes = 12
			c.Telemetry = rec
			c.Faults = chaos
			c.Node.AgingConfig.AccelFactor = 50
			// The window runs to midnight, so the day's last control
			// period, which refreshes the gauges, follows its last tick.
			c.WindowEnd = 24 * time.Hour
		}, layout)
		if _, err := s.RunDay(solar.Rainy); err != nil {
			t.Fatal(err)
		}
		snap := rec.Snapshot()
		return [3]float64{
			snap.Gauge(telemetry.MetricFleetMinHealth),
			snap.Gauge(telemetry.MetricFleetAvgSoC),
			snap.Gauge(telemetry.MetricFleetSuspectNodes),
		}, s
	}

	got, s := gauges(func(*Config) {})
	nodes := s.Nodes()
	minHealth, socSum, suspect := 1.0, 0.0, 0
	for _, nd := range nodes {
		minHealth = min(minHealth, nd.Health())
		socSum += nd.SoC()
		if nd.MetricsSuspect() {
			suspect++
		}
	}
	want := [3]float64{minHealth, socSum / float64(len(nodes)), float64(suspect)}
	if got != want {
		t.Errorf("gauges {min health, mean SoC, suspect} = %v, want %v from the nodes", got, want)
	}
	if minHealth >= 1 || suspect == 0 {
		t.Errorf("chaos day too tame (min health %v, %d suspect nodes); gauges not exercised", minHealth, suspect)
	}

	sharded, _ := gauges(func(c *Config) {
		c.ShardSize = 2
		c.Workers = 2
		c.ParallelThreshold = -1
	})
	if sharded != got {
		t.Errorf("gauges at shard size 2, two workers = %v, want %v at the default layout", sharded, got)
	}
}

// TestTelemetryNilRecorder ensures a full run with no recorder works and
// allocates no telemetry state.
func TestTelemetryNilRecorder(t *testing.T) {
	s := newSim(t, "baat")
	if s.tel != nil {
		t.Fatal("nil config produced a recorder")
	}
	if _, err := s.RunDay(solar.Rainy); err != nil {
		t.Fatal(err)
	}
}
