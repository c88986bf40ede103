package battery_test

// Every battery model tier must pass the shared conformance suite: the
// Pack contract (SoC bounds, health monotonicity, energy balance,
// snapshot/restore identity, corrupt-state and bad-input rejection) is
// chemistry-independent, so the suite runs identically against the
// electrochemical lead-acid reference, the linear coulomb-counting tier,
// and the LFP chemistry. Adding a Kind without a passing entry here is a
// test failure by construction (the loop walks battery.Kinds()).

import (
	"testing"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/battery/modeltest"
)

func TestModelConformance(t *testing.T) {
	for _, kind := range battery.Kinds() {
		kind := kind
		modeltest.Run(t, string(kind), func(t *testing.T) *battery.Pack {
			spec, err := battery.DefaultSpecFor(kind)
			if err != nil {
				t.Fatal(err)
			}
			m, err := battery.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			return m
		})
	}
}
