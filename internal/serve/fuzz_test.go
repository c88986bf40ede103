package serve

// FuzzRunSpec drives the POST /runs body decoder and the spec's
// normalization with arbitrary bytes. The contract under fuzz: nothing
// panics; Normalize, which baatsim calls on its flags without filling
// defaults, rejects a spec that leaves an optional field unset and is
// idempotent on what it accepts; and a spec the daemon admits is a fixed
// point — admitting it again changes nothing, it comes back unchanged from
// a JSON round trip, and SimConfig turns it into a valid engine
// configuration.
//
// CI runs a 5-second smoke via check.sh; hunt longer locally with:
//
//	go test ./internal/serve -run=NONE -fuzz='^FuzzRunSpec$' -fuzztime=60s

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
)

func FuzzRunSpec(f *testing.F) {
	// The served-prototype benchmark's create body, the equivalence suite's
	// chaos scenario, a run that never checkpoints, and the size bounds.
	f.Add([]byte(`{"nodes": 6, "days": 60, "seed": 1001, "faults": "chaos", "accel": 10, "policy": "baat"}`))
	equiv, err := json.Marshal(equivSpec(8, 11))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(equiv)
	f.Add([]byte(`{"checkpoint_every": -1}`))
	// The largest fleet, morning batch and worker count a run may ask for.
	f.Add([]byte(`{"nodes": 65536}`))
	f.Add([]byte(`{"jobs_per_day": 65536}`))
	f.Add([]byte(`{"workers": 64}`))
	// Every optional field set and no default needed, as baatsim's flags
	// fill a spec: seed 0 and no jobs stay as given.
	f.Add([]byte(`{"policy": "ebuff", "days": 2, "nodes": 1, "weather": "Sunny", "sunshine": 0.5, "jobs_per_day": 0,
		"solar_scale": 1, "accel": 1, "faults": "none", "battery_model": "lfp", "prototype_services": false}`))

	// asJSON renders a spec for failure messages (%+v would print the
	// optional fields as pointers).
	asJSON := func(sp RunSpec) string {
		b, _ := json.Marshal(sp)
		return string(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp RunSpec
		if err := decodeBody(httptest.NewRequest("POST", "/runs", bytes.NewReader(data)), &sp); err != nil {
			return
		}
		if raw, err := sp.Normalize(); err == nil {
			if sp.Sunshine == nil || sp.JobsPerDay == nil || sp.SolarScale == nil || sp.Accel == nil || sp.PrototypeServices == nil {
				t.Fatalf("Normalize accepted %s, which leaves an optional field unset", asJSON(sp))
			}
			again, err := raw.Normalize()
			if err != nil || !reflect.DeepEqual(again, raw) {
				t.Fatalf("Normalize is not idempotent: %s became %s (err %v)", asJSON(raw), asJSON(again), err)
			}
		}
		norm, err := sp.admit()
		if err != nil {
			return
		}
		again, err := norm.admit()
		if err != nil {
			t.Fatalf("admitted spec %s rejected when admitted again: %v", asJSON(norm), err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("admit is not idempotent: %s became %s", asJSON(norm), asJSON(again))
		}
		var back RunSpec
		if err := json.Unmarshal([]byte(asJSON(norm)), &back); err != nil {
			t.Fatalf("admitted spec %s does not decode: %v", asJSON(norm), err)
		}
		if back, err = back.admit(); err != nil || !reflect.DeepEqual(back, norm) {
			t.Fatalf("admitted spec %s does not round-trip through JSON (err %v): got %s", asJSON(norm), err, asJSON(back))
		}
		cfg, err := norm.SimConfig()
		if err != nil {
			t.Fatalf("SimConfig rejected admitted spec %s: %v", asJSON(norm), err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("admitted spec %s builds an invalid engine config: %v", asJSON(norm), err)
		}
	})
}
