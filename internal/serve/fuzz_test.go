package serve

// FuzzRunSpec drives the POST /runs body decoder and RunSpec.normalize
// with arbitrary bytes. The contract under fuzz: nothing panics, and a
// spec normalize accepts is a fixed point — normalizing it again changes
// nothing, it comes back unchanged from a JSON round trip, and simConfig
// turns it into a valid engine configuration.
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
		norm, err := sp.normalize()
		if err != nil {
			return
		}
		again, err := norm.normalize()
		if err != nil {
			t.Fatalf("normalized spec %s rejected when normalized again: %v", asJSON(norm), err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("normalize is not idempotent: %s became %s", asJSON(norm), asJSON(again))
		}
		var back RunSpec
		if err := json.Unmarshal([]byte(asJSON(norm)), &back); err != nil {
			t.Fatalf("normalized spec %s does not decode: %v", asJSON(norm), err)
		}
		if back, err = back.normalize(); err != nil || !reflect.DeepEqual(back, norm) {
			t.Fatalf("normalized spec %s does not round-trip through JSON (err %v): got %s", asJSON(norm), err, asJSON(back))
		}
		cfg, err := simConfig(norm)
		if err != nil {
			t.Fatalf("simConfig rejected normalized spec %s: %v", asJSON(norm), err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("normalized spec %s builds an invalid engine config: %v", asJSON(norm), err)
		}
	})
}
