package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The nil Counter is valid
// and drops every update, which is what Registry lookups on a nil Recorder
// hand out — instrumented code never needs its own nil checks.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d. Non-positive deltas are ignored:
// counters only go up (the Prometheus contract).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as atomic float bits.
// The nil Gauge is valid and drops every update.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Bounds are the inclusive upper
// edges of each bucket in ascending order; an implicit +Inf bucket catches
// everything above the last bound. The nil Histogram is valid and drops
// every observation.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: telemetry histograms have a handful of buckets (the SoC
	// histogram mirrors Fig 19's seven bins), where a scan beats a binary
	// search on branch prediction.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper edges; Counts has one extra final entry
	// for the implicit +Inf bucket. Counts are per-bucket, not cumulative.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// snapshot copies the histogram. Buckets are read individually, so a
// concurrent Observe may straddle the copy; totals stay self-consistent
// enough for monitoring (exactness would need a global lock on the hot
// path, the wrong trade).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// LinearBounds returns n evenly spaced bucket bounds covering (lo, hi]:
// the first bound is lo + (hi-lo)/n and the last is hi. Together with the
// implicit +Inf bucket this reproduces a fixed-bin histogram such as the
// seven SoC bins of Fig 19.
func LinearBounds(lo, hi float64, n int) []float64 {
	if n <= 0 || hi <= lo {
		return nil
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n)
	for i := range out {
		out[i] = lo + step*float64(i+1)
	}
	return out
}

// Registry holds named metrics. Lookups take a read lock; registration on
// first use takes the write lock once. Hot paths should capture the
// returned handle instead of re-looking-up per update.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// sanitizeName maps an arbitrary string onto the Prometheus metric-name
// alphabet [a-zA-Z_:][a-zA-Z0-9_:]* so a malformed name degrades the label
// rather than the exposition format. Telemetry must never be the thing
// that crashes the simulation.
func sanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	ok := true
	for i := 0; i < len(name); i++ {
		if !isNameByte(name[i], i == 0) {
			ok = false
			break
		}
	}
	if ok {
		return name
	}
	b := []byte(name)
	for i := range b {
		if !isNameByte(b[i], i == 0) {
			b[i] = '_'
		}
	}
	return string(b)
}

func isNameByte(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	name = sanitizeName(name)
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	name = sanitizeName(name)
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use. Later calls ignore bounds (first registration
// wins). A nil registry — or an empty bounds slice on first registration —
// returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	name = sanitizeName(name)
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	if len(bounds) == 0 || !slices.IsSorted(bounds) {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// Snapshot is a point-in-time copy of every registered metric plus the
// event ring. Experiments assert on it (migrations per policy, DVFS caps)
// instead of scraping their own /metrics output.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Events     []Event                      `json:"events,omitempty"`
}

// Counter returns a counter value from the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge value from the snapshot (0 when absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// snapshot copies all metrics.
func (r *Registry) snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// sortedNames returns map keys in lexical order for stable exposition.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// formatFloat renders a float the way the Prometheus text format expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}
