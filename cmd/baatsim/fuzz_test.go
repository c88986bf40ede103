package main

// FuzzParseBatteryMix drives the -battery-mix syntax through
// parseBatteryMix and the engine's config check. The contract under fuzz:
// nothing panics, and a mix both accept has finite fractions in (0, 1]
// that sum to 1 within 1e-9.
//
// CI runs a 5-second smoke via check.sh; hunt longer locally with:
//
//	go test ./cmd/baatsim -run=NONE -fuzz='^FuzzParseBatteryMix$' -fuzztime=60s

import (
	"math"
	"testing"

	"github.com/green-dc/baat"
)

func FuzzParseBatteryMix(f *testing.F) {
	f.Add("leadacid=0.5,lfp=0.5")
	f.Add("leadacid=NaN,lfp=NaN")
	f.Add("leadacid=0.5,lfp=NaN")
	f.Fuzz(func(t *testing.T, s string) {
		shares, err := parseBatteryMix(s)
		if err != nil {
			return
		}
		cfg := baat.DefaultSimConfig()
		cfg.BatteryFleet = shares
		if cfg.Validate() != nil {
			return
		}
		sum := 0.0
		for _, sh := range shares {
			if !(sh.Fraction > 0 && sh.Fraction <= 1) {
				t.Fatalf("mix %q accepted with fraction %v", s, sh.Fraction)
			}
			sum += sh.Fraction
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("mix %q accepted with fractions summing to %v", s, sum)
		}
	})
}
