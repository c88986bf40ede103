package experiments

import (
	"bytes"
	"sync"
	"sync/atomic"

	"github.com/green-dc/baat/internal/rng"
	"github.com/green-dc/baat/internal/sim"
)

// The single-day comparisons (Figs 13/20) measure each policy on a fleet
// pre-aged to the "old" battery stage (§VI-B). The burn-in is months of
// simulated aging and — for the neutral-aging variants — identical across
// every (policy, weather) cell of a sweep, so re-simulating it per cell
// dominated the suite's wall time. The warm-start path runs each distinct
// burn-in once, snapshots the simulator through the checkpoint envelope,
// and fast-forwards every later variant by restoring the snapshot into its
// freshly built simulator. Resume-at-day-N is byte-identical to an
// uninterrupted run (the engine's checkpoint guarantee), so warm sweeps
// render byte-identically to cold ones — enforced by warmstart_test.go.

// warmStartOff disables memoization so every variant re-runs its own
// burn-in (the cold path). Test hook for the warm-vs-cold equivalence
// assertions; production code never sets it.
var warmStartOff atomic.Bool

// burnInRuns counts full burn-in executions. Test hook: a warm sweep with
// one distinct burn-in must increment it exactly once.
var burnInRuns atomic.Int64

// warmEntry is one memoized burn-in: the checkpoint bytes of the pre-aged
// simulator, computed at most once.
type warmEntry struct {
	once sync.Once
	data []byte
	err  error
}

// warmStarts memoizes burn-in checkpoints keyed by the simulator's config
// hash. The hash covers everything that shapes the burn-in (aging policy,
// seed, acceleration, services, PV scale, fault plan), and ResumeFrom
// re-verifies it, so a wrong entry fails loudly instead of silently
// corrupting a variant.
var warmStarts = struct {
	sync.Mutex
	m map[string]*warmEntry
}{m: map[string]*warmEntry{}}

// resetWarmStarts clears the memo (test hook).
func resetWarmStarts() {
	warmStarts.Lock()
	defer warmStarts.Unlock()
	warmStarts.m = map[string]*warmEntry{}
	burnInRuns.Store(0)
}

// runBurnIn ages a freshly built fleet through the shared pre-aging
// sequence (§VI-B's synchronized aging interval).
func runBurnIn(cfg Config, s *sim.Simulator) error {
	burnInRuns.Add(1)
	for _, pw := range weatherSequence(cfg.Seed, rng.ExpBurnIn, 0.5, preAgeDays(cfg)) {
		if _, err := s.RunDay(pw); err != nil {
			return err
		}
	}
	return nil
}

// preAge brings s to the "old" battery stage under the policy s was built
// with; build must construct a simulator equivalent to s. The first caller
// per config runs the burn-in on a fresh simulator and checkpoints it;
// everyone — including that first caller's s — restores the checkpoint, so
// the warm path exercises exactly one code path regardless of cache state.
func preAge(cfg Config, s *sim.Simulator, build func() (*sim.Simulator, error)) error {
	if warmStartOff.Load() {
		return runBurnIn(cfg, s)
	}
	key, err := s.ConfigHash()
	if err != nil {
		return err
	}

	warmStarts.Lock()
	e := warmStarts.m[key]
	if e == nil {
		e = &warmEntry{}
		warmStarts.m[key] = e
	}
	warmStarts.Unlock()

	e.once.Do(func() {
		fresh, err := build()
		if err != nil {
			e.err = err
			return
		}
		if err := runBurnIn(cfg, fresh); err != nil {
			e.err = err
			return
		}
		var buf bytes.Buffer
		if err := fresh.Checkpoint(&buf); err != nil {
			e.err = err
			return
		}
		e.data = buf.Bytes()
	})
	if e.err != nil {
		return e.err
	}
	return s.ResumeFrom(bytes.NewReader(e.data))
}
