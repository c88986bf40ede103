package main

// baatsim fills a serve.RunSpec from its scenario flags and builds its
// simulator and weather with the spec's own methods, so a run created over
// POST /runs with the equivalent JSON reproduces the baatsim run. Both
// sides write their day-N checkpoint here, and the two envelopes must be
// the same bytes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/serve"
)

func TestServedRunMatchesCLI(t *testing.T) {
	cases := []struct {
		name string
		days int
		args []string
		spec string
	}{
		{
			name: "every mapped field",
			days: 4,
			args: []string{
				"-policy", "baat-f,floor=0.3", "-battery-model", "lfp", "-sunshine", "0.3", "-jobs", "4",
				"-solar-scale", "1.2", "-nodes", "8", "-prototype-services=false", "-seed", "11",
				"-accel", "5", "-faults", "sensor",
			},
			spec: `{"policy": "baat-f", "policy_options": {"floor": "0.3"}, "battery_model": "lfp",
				"sunshine": 0.3, "jobs_per_day": 4, "solar_scale": 1.2, "nodes": 8,
				"prototype_services": false, "seed": 11, "accel": 5, "faults": "sensor", "days": 4}`,
		},
		{
			name: "serve smoke chaos",
			days: 6,
			args: []string{"-seed", "7", "-accel", "10", "-faults", "chaos"},
			spec: `{"days": 6, "seed": 7, "accel": 10, "faults": "chaos"}`,
		},
		{
			// Both rows above draw mix weather; this one takes the
			// fixed-weather branch, binds -workers, and runs another tier.
			name: "fixed weather linear tier",
			days: 3,
			args: []string{"-weather", "cloudy", "-workers", "2", "-battery-model", "linear", "-faults", "battery"},
			spec: `{"days": 3, "weather": "cloudy", "workers": 2, "battery_model": "linear", "faults": "battery"}`,
		},
	}
	srv := serve.NewServer()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		ts.Close()
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ck")
			days := strconv.Itoa(tc.days)
			args := append([]string{"-days", days, "-checkpoint-every", days, "-checkpoint", path}, tc.args...)
			if err := run(args); err != nil {
				t.Fatal(err)
			}
			cli, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if served := servedCheckpoint(t, ts.URL, tc.spec, tc.days); !bytes.Equal(cli, served) {
				t.Errorf("day-%d checkpoints differ: baatsim wrote %d bytes, the daemon %d", tc.days, len(cli), len(served))
			}
		})
	}
}

// servedCheckpoint creates a run from spec over the HTTP API, runs it to
// done and returns its checkpoint after the given day.
func servedCheckpoint(t *testing.T, base, spec string, day int) []byte {
	t.Helper()
	call := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: read body: %v", method, path, err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, b)
		}
		return b
	}
	var inf serve.RunInfo
	if err := json.Unmarshal(call("POST", "/runs", spec), &inf); err != nil {
		t.Fatal(err)
	}
	call("POST", "/runs/"+inf.ID+"/start", "")
	for deadline := time.Now().Add(2 * time.Minute); inf.State != serve.StateDone; {
		if inf.State == serve.StateFailed || time.Now().After(deadline) {
			t.Fatalf("run %s is %s at day %d: %s", inf.ID, inf.State, inf.Day, inf.Error)
		}
		time.Sleep(5 * time.Millisecond)
		if err := json.Unmarshal(call("GET", "/runs/"+inf.ID, ""), &inf); err != nil {
			t.Fatal(err)
		}
	}
	return call("GET", fmt.Sprintf("/runs/%s/checkpoint?day=%d", inf.ID, day), "")
}
