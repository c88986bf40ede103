package node

// Unit tests for the node's fault surface: sensor corruption feeding the
// tracker (not the physics), the suspect/quarantine state machine, utility
// gating under injected brownouts, and battery wear shocks.

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/workload"
)

// stepTicks advances the node under a light load for the given tick count.
func stepTicks(t *testing.T, n *Node, ticks int) {
	t.Helper()
	for i := 0; i < ticks; i++ {
		if err := n.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNaNSensorQuarantinesImmediately(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v", workload.WebServing)
	stepTicks(t, n, 3) // establish a clean baseline
	if n.MetricsSuspect() {
		t.Fatal("clean node marked suspect")
	}
	n.SetSensorFault(faults.SensorFault{Mode: faults.ModeNaN})
	stepTicks(t, n, 1)
	if n.SensorRejected() == 0 {
		t.Error("tracker accepted a NaN sample")
	}
	if !n.MetricsSuspect() {
		t.Error("node not quarantined after a rejected sample")
	}
	// The rejected sample must leave no NaN in the node's state: the
	// metrics stay finite, and the state still marshals into a checkpoint
	// (encoding/json refuses NaN).
	if m := n.Metrics(); math.IsNaN(m.NAT) || math.IsNaN(m.DR) {
		t.Errorf("NaN leaked into the metrics: %+v", m)
	}
	if _, err := json.Marshal(n.Snapshot()); err != nil {
		t.Errorf("node state does not serialize after a rejected sample: %v", err)
	}
}

func TestDroppedSensorGoesStaleAfterThreshold(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v", workload.WebServing)
	stepTicks(t, n, 2)
	before := n.Metrics()
	n.SetSensorFault(faults.SensorFault{Mode: faults.ModeDrop})

	// Below the stale threshold: missed but not yet quarantined.
	stepTicks(t, n, DefaultStaleAfter-1)
	if n.MetricsSuspect() {
		t.Error("quarantined before DefaultStaleAfter consecutive misses")
	}
	// The next consecutive miss crosses the threshold.
	stepTicks(t, n, 1)
	if !n.MetricsSuspect() {
		t.Error("not quarantined after DefaultStaleAfter consecutive misses")
	}
	if n.SensorDropped() != DefaultStaleAfter {
		t.Errorf("dropped = %d, want %d", n.SensorDropped(), DefaultStaleAfter)
	}
	// Dropped samples never reach the tracker: the metrics are frozen.
	if got := n.Metrics(); got != before {
		t.Errorf("metrics changed during a dropped feed: %+v, want %+v", got, before)
	}
}

func TestQuarantineExpiresAfterCleanSamples(t *testing.T) {
	n := newNode(t, func(c *Config) { c.SensorQuarantine = 5 * time.Minute })
	attachVM(t, n, "v", workload.WebServing)
	stepTicks(t, n, 1)
	n.SetSensorFault(faults.SensorFault{Mode: faults.ModeNaN})
	stepTicks(t, n, 1)
	if !n.MetricsSuspect() {
		t.Fatal("not quarantined")
	}
	n.SetSensorFault(faults.SensorFault{}) // sensor recovers
	stepTicks(t, n, 4)
	if !n.MetricsSuspect() {
		t.Error("quarantine lifted early: only 4 minutes of a 5-minute window elapsed")
	}
	stepTicks(t, n, 2)
	if n.MetricsSuspect() {
		t.Error("quarantine never expired after clean samples")
	}
}

func TestStuckSensorFreezesTrackerNotPhysics(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v", workload.KMeans)
	stepTicks(t, n, 5)
	socBefore := n.Battery().SoC()

	n.SetSensorFault(faults.SensorFault{Mode: faults.ModeStuck})
	stepTicks(t, n, 30)

	// The physics keep moving: the true SoC keeps falling under load,
	// while the sensor chain keeps feeding the tracker the frozen pre-fault
	// sample.
	socAfter := n.Battery().SoC()
	if socAfter >= socBefore {
		t.Error("physics froze with the sensor: SoC did not move")
	}
	last := n.Snapshot().LastSample
	if math.Abs(last.SoC-socBefore) > 1e-6 {
		t.Errorf("stuck sample SoC = %v, want frozen pre-fault value %v", last.SoC, socBefore)
	}
	if math.Abs(last.SoC-socAfter) < 1e-9 {
		t.Error("stuck sample tracks the live SoC; the sensor view should be frozen")
	}
	// Ground-truth aging is unaffected: the model observed the true
	// samples, so health keeps decaying.
	if n.AgingModel().Degradation().CapacityFade <= 0 {
		t.Error("aging model saw no damage despite real discharge")
	}
	// Stuck samples are plausible, so no quarantine.
	if n.MetricsSuspect() {
		t.Error("stuck sensor quarantined the node (plausible samples should pass)")
	}
}

func TestNoisySensorPerturbsReportedSample(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v", workload.WebServing)
	stepTicks(t, n, 1)
	n.SetSensorFault(faults.SensorFault{
		Mode:  faults.ModeNoise,
		Sigma: 0.2,
		Noise: [3]float64{1.5, -0.5, 0.25},
	})
	stepTicks(t, n, 1)
	// The tracker accepts the plausible noisy sample as reported: its SoC
	// is the true value shifted by 0.1·σ·noise[1] = −0.01.
	last := n.Snapshot().LastSample
	if want := n.Battery().SoC() - 0.01; math.Abs(last.SoC-want) > 1e-6 {
		t.Errorf("noisy sample SoC = %v, want ≈%v", last.SoC, want)
	}
	if n.MetricsSuspect() {
		t.Error("noisy but plausible sample quarantined the node")
	}
}

func TestUtilityGatingDuringBrownout(t *testing.T) {
	n := newNode(t, func(c *Config) { c.UtilityBackup = true })
	if !n.UtilityAvailable() {
		t.Fatal("utility not available with UtilityBackup set")
	}
	n.SetUtilityAvailable(false)
	if n.UtilityAvailable() {
		t.Error("utility still available during injected brownout")
	}
	n.SetUtilityAvailable(true)
	if !n.UtilityAvailable() {
		t.Error("utility did not come back after the brownout")
	}
	// Without the backup config the flag must stay false regardless.
	bare := newNode(t)
	bare.SetUtilityAvailable(true)
	if bare.UtilityAvailable() {
		t.Error("utility reported available without UtilityBackup")
	}
}

func TestInjectBatteryWear(t *testing.T) {
	n := newNode(t)
	healthBefore := n.Stats().Health
	n.InjectBatteryWear(0.10, 0.5, 0)
	healthAfter := n.Stats().Health
	if healthAfter >= healthBefore {
		t.Errorf("health %v -> %v: capacity-loss shock had no effect", healthBefore, healthAfter)
	}
	// The shock must land close to the requested fade.
	if diff := healthBefore - healthAfter; diff < 0.05 || diff > 0.15 {
		t.Errorf("health dropped by %v, want ~0.10", diff)
	}
	deg := n.AgingModel().Degradation()
	if deg.ResistanceGrowth < 0.5 {
		t.Errorf("resistance growth %v, want >= 0.5", deg.ResistanceGrowth)
	}
}
