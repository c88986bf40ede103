package aging

// Allocation guard for the per-tick metric fold: Tracker.Observe runs once
// per node per simulated minute, so a single heap allocation here
// multiplies into millions per experiment sweep. The benchmark-regression
// harness (internal/perf) pins the same path across releases; this test
// catches a regression at `go test` time with an exact zero.

import (
	"testing"
	"time"
)

func TestObserveAllocFree(t *testing.T) {
	tr, err := NewTracker(2100)
	if err != nil {
		t.Fatal(err)
	}
	samples := []Sample{
		{Dt: time.Minute, Current: 5, SoC: 0.55, Temperature: 25},  // discharge, band C
		{Dt: time.Minute, Current: -5, SoC: 0.55, Temperature: 25}, // charge
		{Dt: time.Minute, Current: 8, SoC: 0.25, Temperature: 30},  // deep discharge
		{Dt: time.Minute, Current: 0, SoC: 0.90, Temperature: 20},  // rest
	}
	var i int
	allocs := testing.AllocsPerRun(1000, func() {
		if err := tr.Observe(samples[i%len(samples)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Tracker.Observe allocates %.1f objects per call, want 0", allocs)
	}
}

func TestMetricsSnapshotAllocFree(t *testing.T) {
	tr, err := NewTracker(2100)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(Sample{Dt: time.Hour, Current: 5, SoC: 0.5, Temperature: 25}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		_ = tr.Metrics()
	})
	if allocs != 0 {
		t.Fatalf("Tracker.Metrics allocates %.1f objects per call, want 0", allocs)
	}
}

// TestRestoreAllocFree: a checkpoint resume restores every node's tracker
// and damage model, and a good snapshot must restore without formatting
// any field name.
func TestRestoreAllocFree(t *testing.T) {
	tr, err := NewTracker(2100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(DefaultModelConfig(), 70)
	if err != nil {
		t.Fatal(err)
	}
	s := Sample{Dt: time.Hour, Current: 8, SoC: 0.25, Temperature: 30}
	if err := tr.Observe(s); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(s); err != nil {
		t.Fatal(err)
	}
	ts, ms := tr.Snapshot(), m.Snapshot()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := tr.Restore(ts); err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(ms); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Tracker.Restore + Model.Restore allocate %.1f objects per call, want 0", allocs)
	}
}
