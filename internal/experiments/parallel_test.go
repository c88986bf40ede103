package experiments

// The serial≡parallel sweep-equivalence gate: Config.Workers trades wall
// time only, never rendered output. Every quick-capable experiment must
// produce a byte-identical Render() at any worker count, because each
// variant writes only into its own pre-indexed slot and tables are
// assembled in index order. The sweep runs under -race via `make check`,
// doubling as the data-race gate on runSweep.

import (
	"errors"
	"fmt"
	"testing"
)

// sweepEquivalenceIDs covers every sweep shape the harnesses use: a plain
// per-variant list (fig12, fig18), a flattened scenario×kind grid (fig13;
// fig14/fig20 share the layout but cost lifetime searches), a
// reference-slot-plus-sweep layout (fig22), a two-branch architecture
// split (arch-comparison), and the flattened scenario×battery-tier grid
// (model-fidelity). IDs are quick-capable so the sweep stays in -race
// budget.
var sweepEquivalenceIDs = []string{
	"fig12", "fig13", "fig18", "fig22", "arch-comparison", "model-fidelity",
}

func renderWith(t *testing.T, id string, workers int) string {
	t.Helper()
	runner, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Quick = true
	cfg.Workers = workers
	table, err := runner(cfg)
	if err != nil {
		t.Fatalf("%s with %d workers: %v", id, workers, err)
	}
	return table.Render()
}

func TestSweepSerialParallelEquivalence(t *testing.T) {
	ids := sweepEquivalenceIDs
	if testing.Short() {
		ids = ids[:2]
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			serial := renderWith(t, id, 1)
			for _, workers := range []int{2, 8} {
				if got := renderWith(t, id, workers); got != serial {
					t.Errorf("Workers=%d rendered differently from serial:\n--- serial ---\n%s--- workers=%d ---\n%s",
						workers, serial, workers, got)
				}
			}
		})
	}
}

// TestRunSweepErrorDeterministic checks the index-ordered error reduction:
// however the pool schedules failing variants, the reported error is the
// lowest-index failure.
func TestRunSweepErrorDeterministic(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		err := runSweep(4, 9, func(i int) error {
			if i >= 5 {
				return fmt.Errorf("variant %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatal("runSweep() = nil, want error")
		}
		if got := err.Error(); got != "variant 5 failed" {
			t.Fatalf("trial %d: got %q, want the lowest-index failure", trial, got)
		}
	}
}

// TestRunSweepCoversAllSlots checks that every index runs exactly once for
// pool widths below, at, and above the variant count.
func TestRunSweepCoversAllSlots(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 16} {
		counts := make([]int, 7)
		if err := runSweep(workers, len(counts), func(i int) error {
			counts[i]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: slot %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunSweepEmpty(t *testing.T) {
	if err := runSweep(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}
