package core

// FuzzParsePolicySpec drives the -policy flag syntax (and the policy half
// of a serve RunSpec) through ParsePolicySpec and Build. The contract
// under fuzz: nothing panics; a spec Build accepts normalizes to a form
// whose String() parses and normalizes back to the same spec; and every
// accepted option value that reads as a float is finite.
//
// CI runs a 5-second smoke via check.sh; hunt longer locally with:
//
//	go test ./internal/core -run=NONE -fuzz='^FuzzParsePolicySpec$' -fuzztime=60s

import (
	"math"
	"strconv"
	"testing"
)

func FuzzParsePolicySpec(f *testing.F) {
	for _, info := range Registered() {
		f.Add(info.Name)
	}
	for _, s := range []string{
		"baat,planned-months=6,cycles-per-day=2",
		"baat,floor=NaN",
		"peak-shave,floor=NaN",
		"baat,planned-months=6,cycles-per-day=NaN",
		"baat,planned-months=6,cycles-per-day=+Inf",
		"baat,planned-months=NaN",
		"baat,planned-months=1e300",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParsePolicySpec(s)
		if err != nil {
			return
		}
		if _, err := Build(sp); err != nil {
			return
		}
		norm, err := Normalize(sp)
		if err != nil {
			t.Fatalf("Build accepted %q but Normalize rejects it: %v", s, err)
		}
		for k, v := range norm.Options {
			if x, err := strconv.ParseFloat(v, 64); err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
				t.Fatalf("Build accepted %q with non-finite option %s=%s", s, k, v)
			}
		}
		again, err := ParsePolicySpec(norm.String())
		if err != nil {
			t.Fatalf("normalized spec %q does not parse: %v", norm, err)
		}
		if again, err = Normalize(again); err != nil || !again.Equal(norm) {
			t.Fatalf("normalized spec %q does not round-trip (err %v): got %q", norm, err, again)
		}
	})
}
