package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/serve/leaktest"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	leaktest.Check(t)
	r := NewRecorder()
	r.Counter(MetricMigrations).Add(7)
	r.Gauge(MetricFleetMinHealth).Set(0.93)
	h := r.Histogram(MetricSoC, LinearBounds(0, 1, 7))
	h.Observe(0.2)
	h.Observe(0.9)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"# TYPE " + MetricMigrations + " counter",
		MetricMigrations + " 7",
		"# HELP " + MetricMigrations + " ",
		"# TYPE " + MetricFleetMinHealth + " gauge",
		MetricFleetMinHealth + " 0.93",
		"# TYPE " + MetricSoC + " histogram",
		MetricSoC + `_bucket{le="+Inf"} 2`,
		MetricSoC + "_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Cumulative buckets: 0.9 lands above the 6/7 bound, so the first
	// bucket line holds only the 0.2 sample.
	if !strings.Contains(body, MetricSoC+`_bucket{le="0.14`) {
		t.Errorf("/metrics missing first SoC bucket in:\n%s", body)
	}
}

func TestEventsEndpoint(t *testing.T) {
	leaktest.Check(t)
	r := NewRecorder()
	r.Emit(time.Minute, EventBatteryEOL, "node-3", "health 0.79")
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	code, body := get(t, srv.URL+"/events")
	if code != http.StatusOK {
		t.Fatalf("/events status = %d", code)
	}
	var dump struct {
		Events  []Event `json:"events"`
		Total   uint64  `json:"total"`
		Dropped uint64  `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/events not JSON: %v\n%s", err, body)
	}
	if len(dump.Events) != 1 || dump.Total != 1 || dump.Dropped != 0 {
		t.Fatalf("/events dump = %+v, want one event", dump)
	}
	ev := dump.Events[0]
	if ev.Type != EventBatteryEOL || ev.Node != "node-3" || ev.At != time.Minute {
		t.Errorf("event = %+v", ev)
	}
}

func TestPprofEndpoint(t *testing.T) {
	leaktest.Check(t)
	r := NewRecorder()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	code, body := get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%s", body)
	}
	code, _ = get(t, srv.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", code)
	}
}

func TestListenAndServe(t *testing.T) {
	leaktest.Check(t)
	r := NewRecorder()
	r.Counter(MetricSimTicks).Inc()
	srv, err := r.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, MetricSimTicks+" 1") {
		t.Errorf("metrics body missing tick counter:\n%s", body)
	}
}

func TestEmptyMetricsAndEvents(t *testing.T) {
	leaktest.Check(t)
	r := NewRecorder()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	if code, _ := get(t, srv.URL+"/metrics"); code != http.StatusOK {
		t.Errorf("/metrics on empty registry status = %d", code)
	}
	code, body := get(t, srv.URL+"/events")
	if code != http.StatusOK {
		t.Errorf("/events on empty ring status = %d", code)
	}
	if !strings.Contains(body, `"events":[]`) {
		t.Errorf("/events should serialize an empty array, got %s", body)
	}
}
