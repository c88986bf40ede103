package node

import (
	"testing"
	"time"

	"github.com/green-dc/baat/internal/workload"
)

func TestStepOfflineChargesWithoutDowntime(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.SoftwareTesting)
	// Drain during the day.
	for i := 0; i < 3*60; i++ {
		if err := n.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	socEvening := n.Battery().SoC()
	downBefore := n.Server().Downtime()

	// Overnight with some residual generation: the server is off by
	// schedule, the battery charges, and no downtime accrues.
	for i := 0; i < 60; i++ {
		if err := n.StepOffline(time.Minute, 200); err != nil {
			t.Fatal(err)
		}
	}
	if n.Server().Powered() {
		t.Error("server powered during the offline window")
	}
	if n.Battery().SoC() <= socEvening {
		t.Error("battery did not charge overnight")
	}
	if n.Server().Downtime() != downBefore {
		t.Error("scheduled-off time counted as downtime")
	}
}

func TestStepOfflineRestsWithoutSolar(t *testing.T) {
	n := newNode(t)
	if err := n.StepOffline(time.Hour, 0); err != nil {
		t.Fatal(err)
	}
	if c := n.Battery().Counters(); c.AhOut != 0 || c.AhIn != 0 || n.Stats().SolarEnergy != 0 {
		t.Errorf("resting offline step moved power: %+v, solar %v", c, n.Stats().SolarEnergy)
	}
	// The sample still reaches the tracker (Eq 5 counts time).
	if st := n.Snapshot(); !st.HaveSample || st.Tracker.Total != time.Hour {
		t.Errorf("tracker saw %v of samples (have sample %v), want 1h", st.Tracker.Total, st.HaveSample)
	}
	if n.Clock() != time.Hour {
		t.Errorf("clock = %v, want 1h", n.Clock())
	}
}

func TestStepOfflineValidation(t *testing.T) {
	n := newNode(t)
	if err := n.StepOffline(0, 0); err == nil {
		t.Error("zero duration accepted")
	}
	if err := n.StepOffline(time.Minute, -1); err == nil {
		t.Error("negative solar accepted")
	}
}

func TestOfflineDeepParkingAccruesDDT(t *testing.T) {
	// A battery parked overnight below 40% SoC accumulates deep-discharge
	// time even with zero current — Eq 5 is time-based (§III-D).
	n := newNode(t)
	attachVM(t, n, "v1", workload.SoftwareTesting)
	for i := 0; i < 8*60 && n.Battery().SoC() > 0.3; i++ {
		if err := n.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := n.Metrics().DDT
	for i := 0; i < 6*60; i++ {
		if err := n.StepOffline(time.Minute, 0); err != nil {
			t.Fatal(err)
		}
	}
	if after := n.Metrics().DDT; after <= before {
		t.Errorf("DDT did not grow while parked deep overnight: %v -> %v", before, after)
	}
}
