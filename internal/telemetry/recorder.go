package telemetry

import "time"

// Recorder bundles a metric registry and an event tracer into the single
// handle every instrumented package embeds. The nil *Recorder is the
// designed-for default: all methods no-op, all returned metric handles are
// nil-safe no-ops, so an un-instrumented simulation pays one pointer test
// per recording site.
type Recorder struct {
	reg    *Registry
	tracer *Tracer
}

// NewRecorder returns a live recorder with an empty registry and an event
// ring of DefaultTraceCapacity.
func NewRecorder() *Recorder {
	return &Recorder{reg: NewRegistry(), tracer: NewTracer(0)}
}

// Counter returns the named counter handle (nil, and safe, on a nil
// recorder). Hot paths should capture the handle once.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.reg.Counter(name)
}

// Gauge returns the named gauge handle (nil, and safe, on a nil recorder).
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(name)
}

// Histogram returns the named histogram handle, registering it with bounds
// on first use (nil, and safe, on a nil recorder).
func (r *Recorder) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.reg.Histogram(name, bounds)
}

// Emit records one structured event at simulated time at.
func (r *Recorder) Emit(at time.Duration, typ EventType, node, detail string) {
	if r == nil {
		return
	}
	r.tracer.Record(Event{At: at, Type: typ, Node: node, Detail: detail})
}

// Events returns the retained events oldest-first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.tracer.Events()
}

// Snapshot copies every metric and the retained events. Tests and
// experiment harnesses assert on it (e.g. migrations under e-Buff versus
// BAAT on the same trace) instead of scraping /metrics.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{
			Counters:   map[string]int64{},
			Gauges:     map[string]float64{},
			Histograms: map[string]HistogramSnapshot{},
		}
	}
	s := r.reg.snapshot()
	s.Events = r.tracer.Events()
	return s
}
