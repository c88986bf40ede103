package telemetry

import (
	"testing"
	"time"
)

// TestNilRecorderNoOp is the contract the whole instrumentation layer
// leans on: a nil *Recorder — the zero value of every Telemetry config
// field — must accept every call and hand out handles that are themselves
// no-ops, so un-instrumented runs cost nothing and crash nowhere.
func TestNilRecorderNoOp(t *testing.T) {
	var r *Recorder
	r.Counter("x").Inc()
	r.Counter("x").Add(3)
	r.Gauge("y").Set(1)
	r.Histogram("z", []float64{1, 2}).Observe(1)
	r.Emit(time.Minute, EventMigration, "node-0", "vm-1 -> node-2")
	if evs := r.Events(); evs != nil {
		t.Errorf("nil recorder events = %v, want nil", evs)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 || len(snap.Events) != 0 {
		t.Errorf("nil recorder snapshot not empty: %+v", snap)
	}
	// Nil handles from a nil registry as well.
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(1)
	reg.Histogram("z", []float64{1}).Observe(1)
	// And plain nil handles.
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(1)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles should read zero")
	}
	var tr *Tracer
	tr.Record(Event{})
	if tr.Events() != nil || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer should be a no-op")
	}
}

func TestRecorderSnapshot(t *testing.T) {
	r := NewRecorder()
	r.Counter(MetricMigrations).Add(3)
	r.Gauge(MetricFleetAvgSoC).Set(0.55)
	r.Histogram(MetricSoC, LinearBounds(0, 1, 7)).Observe(0.5)
	r.Emit(5*time.Minute, EventMigration, "node-0", "vm-1 -> node-2")
	r.Emit(6*time.Minute, EventDVFSCap, "node-1", "")

	snap := r.Snapshot()
	if got := snap.Counter(MetricMigrations); got != 3 {
		t.Errorf("migrations = %d, want 3", got)
	}
	if got := snap.Gauge(MetricFleetAvgSoC); got != 0.55 {
		t.Errorf("avg SoC = %v, want 0.55", got)
	}
	h, ok := snap.Histograms[MetricSoC]
	if !ok || h.Count != 1 {
		t.Errorf("SoC histogram = %+v, want one observation", h)
	}
	if len(snap.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(snap.Events))
	}
	if snap.Events[0].Type != EventMigration || snap.Events[1].Type != EventDVFSCap {
		t.Errorf("event order wrong: %+v", snap.Events)
	}
	if snap.Events[0].At != 5*time.Minute {
		t.Errorf("event sim time = %v, want 5m", snap.Events[0].At)
	}
	// Absent names read zero.
	if snap.Counter("baat_absent_total") != 0 || snap.Gauge("baat_absent") != 0 {
		t.Error("absent snapshot names should read zero")
	}
}
