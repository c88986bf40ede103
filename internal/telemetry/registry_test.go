package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("baat_test_total")
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
}

func TestCounterMonotone(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5 (non-positive deltas ignored)", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("baat_test_hist", []float64{1, 2, 3})
	for _, v := range []float64{0.5, 1, 1.5, 2.5, 99} {
		h.Observe(v)
	}
	s := h.snapshot()
	// Bounds are inclusive upper edges: 0.5 and 1 land in bucket 0, 1.5 in
	// bucket 1, 2.5 in bucket 2, 99 in the +Inf bucket.
	wantCounts := []int64{2, 1, 1, 1}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-104.5) > 1e-9 {
		t.Errorf("sum = %v, want 104.5", s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("baat_test_hist", LinearBounds(0, 1, 7))
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := float64(w) / workers
			for i := 0; i < per; i++ {
				h.Observe(v)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Errorf("count = %d, want %d", got, workers*per)
	}
	var total int64
	for _, c := range h.snapshot().Counts {
		total += c
	}
	if total != workers*per {
		t.Errorf("bucket totals = %d, want %d", total, workers*per)
	}
}

func TestLinearBounds(t *testing.T) {
	b := LinearBounds(0, 1, 7)
	if len(b) != 7 {
		t.Fatalf("len = %d, want 7", len(b))
	}
	if math.Abs(b[6]-1) > 1e-12 {
		t.Errorf("last bound = %v, want 1", b[6])
	}
	if LinearBounds(1, 0, 3) != nil || LinearBounds(0, 1, 0) != nil {
		t.Error("degenerate bounds should be nil")
	}
}

func TestGetOrCreateIdentity(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("same name returned distinct counters")
	}
	if reg.Histogram("h", []float64{1}) != reg.Histogram("h", []float64{5, 6}) {
		t.Error("histogram re-registration should return the first instance")
	}
}

func TestSanitizeName(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bad name-1.x").Inc()
	snap := reg.snapshot()
	if snap.Counters["bad_name_1_x"] != 1 {
		t.Errorf("sanitized counter missing: %v", snap.Counters)
	}
	if got := sanitizeName("9lead"); got != "_lead" {
		t.Errorf("sanitizeName(9lead) = %q, want _lead", got)
	}
	if got := sanitizeName(""); got != "_" {
		t.Errorf("sanitizeName(\"\") = %q, want _", got)
	}
}

func TestConcurrentRegistration(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.Counter("shared_total").Inc()
				reg.Gauge("shared_gauge").Set(1)
				reg.Histogram("shared_hist", []float64{1, 2}).Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := reg.snapshot().Counters["shared_total"]; got != 8*200 {
		t.Errorf("shared counter = %d, want %d", got, 8*200)
	}
}
