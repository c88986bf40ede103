package sim

import (
	"bytes"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/solar"
)

// TestEveryFaultKindChangesRun holds the engine to the fault catalogue:
// each kind faults.Kinds lists, scheduled fleet-wide for half a day, must
// move the marshaled result away from the clean run. A kind the engine
// ignores would spend the injector's draws and document an effect nothing
// delivers. The fleet runs on utility backup (so a brownout is observable)
// with a small solar array, a job backlog and two rainy days (so the
// battery, and with it every sensor and battery fault, is in play).
func TestEveryFaultKindChangesRun(t *testing.T) {
	run := func(t *testing.T, rules []faults.Rule) []byte {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Node.UtilityBackup = true
		cfg.Solar.Scale = 0.3
		cfg.JobsPerDay = 20
		cfg.Faults = faults.Config{Rules: rules}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run([]solar.Weather{solar.Rainy, solar.Rainy})
		if err != nil {
			t.Fatal(err)
		}
		return marshaledResult(t, res)
	}
	clean := run(t, nil)
	for _, k := range faults.Kinds() {
		t.Run(string(k), func(t *testing.T) {
			rule := faults.Rule{Kind: k, Node: -1, Day: 1, At: 9 * time.Hour, Duration: 12 * time.Hour}
			if bytes.Equal(run(t, []faults.Rule{rule}), clean) {
				t.Errorf("%s left the run byte-identical to the clean run", k)
			}
		})
	}
}
