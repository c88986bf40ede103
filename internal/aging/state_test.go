package aging

// Property tests over the tracker and model snapshot/restore pairs:
// Restore(Snapshot()) is the identity from any reachable state, and NaN,
// infinite, negative, or internally inconsistent snapshots are rejected
// without touching the target.

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/green-dc/baat/internal/units"
)

// observeWalk feeds the same pseudo-random sample sequence to a tracker
// and/or model, exercising every accumulator.
func observeWalk(t *testing.T, raw []int16, tr *Tracker, m *Model) {
	t.Helper()
	for _, r := range raw {
		s := Sample{
			Dt:          time.Minute,
			Current:     units.Ampere(float64(r%40) / 2),
			SoC:         math.Abs(float64(r%100)) / 100,
			Temperature: units.Celsius(20 + math.Abs(float64(r%25))),
		}
		if tr != nil {
			if err := tr.Observe(s); err != nil {
				t.Fatal(err)
			}
		}
		if m != nil {
			if err := m.Observe(s); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestQuickTrackerSnapshotRestoreIdentity: a tracker restored from a
// snapshot reports the snapshot exactly, regardless of what it has
// observed in between.
func TestQuickTrackerSnapshotRestoreIdentity(t *testing.T) {
	prop := func(walk, detour []int16) bool {
		tr, err := NewTracker(7000)
		if err != nil {
			t.Fatal(err)
		}
		observeWalk(t, walk, tr, nil)
		want := tr.Snapshot()
		observeWalk(t, detour, tr, nil)
		if err := tr.Restore(want); err != nil {
			t.Logf("restore of own snapshot rejected: %v", err)
			return false
		}
		return tr.Snapshot() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickModelSnapshotRestoreIdentity: same contract for the damage
// model.
func TestQuickModelSnapshotRestoreIdentity(t *testing.T) {
	prop := func(walk, detour []int16) bool {
		m, err := NewModel(DefaultModelConfig(), 70)
		if err != nil {
			t.Fatal(err)
		}
		observeWalk(t, walk, nil, m)
		want := m.Snapshot()
		observeWalk(t, detour, nil, m)
		if err := m.Restore(want); err != nil {
			t.Logf("restore of own snapshot rejected: %v", err)
			return false
		}
		return m.Snapshot() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickTrackerRestoreRejectsCorrupt: every accumulator rejects NaN,
// infinities, negatives, sub-durations exceeding the total, and states no
// sample sequence reaches.
func TestQuickTrackerRestoreRejectsCorrupt(t *testing.T) {
	corruptions := []func(*TrackerState){
		func(st *TrackerState) { st.AhOut = math.NaN() },
		func(st *TrackerState) { st.AhIn = math.Inf(1) },
		func(st *TrackerState) { st.AhByRange[2] = -1 },
		func(st *TrackerState) { st.Total = -time.Second },
		func(st *TrackerState) { st.Deep = st.Total + time.Hour },
		func(st *TrackerState) { st.LowTime = st.Total + time.Hour },
		func(st *TrackerState) { st.DisTime = st.Total + time.Hour },
		func(st *TrackerState) { st.DRPeak = -0.5 },
		// Band Ah far from the discharge Ah, and discharge with no peak
		// rate: this state reported PC = 11.25 and DRLowSoC = 300 A.
		func(st *TrackerState) {
			*st = TrackerState{AhOut: 1, AhByRange: [4]float64{10, 0, 0, 5},
				Total: 2 * time.Hour, Deep: time.Minute, DisTime: time.Hour, LowTime: time.Minute}
		},
		// A peak rate below the mean rate over the discharge time.
		func(st *TrackerState) {
			*st = TrackerState{AhOut: 10, AhByRange: [4]float64{10, 0, 0, 0},
				Total: 2 * time.Hour, DisTime: time.Hour, DRPeak: 5}
		},
		// More low-SoC discharge time than discharge time.
		func(st *TrackerState) {
			*st = TrackerState{AhOut: 5, AhByRange: [4]float64{0, 0, 0, 5},
				Total: 3 * time.Hour, Deep: 2 * time.Hour, DisTime: time.Hour, LowTime: 2 * time.Hour, DRPeak: 5}
		},
	}
	prop := func(walk []int16, which uint8) bool {
		tr, err := NewTracker(7000)
		if err != nil {
			t.Fatal(err)
		}
		observeWalk(t, walk, tr, nil)
		before := tr.Snapshot()
		st := before
		corruptions[int(which)%len(corruptions)](&st)
		if err := tr.Restore(st); err == nil {
			return false
		}
		return tr.Snapshot() == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickModelRestoreRejectsCorrupt: damage is cumulative and
// irreversible; no corrupted field may slip through.
func TestQuickModelRestoreRejectsCorrupt(t *testing.T) {
	corruptions := []func(*ModelState){
		func(st *ModelState) { st.CapFade = math.NaN() },
		func(st *ModelState) { st.ResGrowth = math.Inf(1) },
		func(st *ModelState) { st.EffLoss = -0.1 },
		func(st *ModelState) { st.SinceFull = -1 },
		func(st *ModelState) { st.ByMechanism[0] = math.NaN() },
		func(st *ModelState) { st.ByMechanism[NumMechanisms-1] = -2 },
	}
	prop := func(walk []int16, which uint8) bool {
		m, err := NewModel(DefaultModelConfig(), 70)
		if err != nil {
			t.Fatal(err)
		}
		observeWalk(t, walk, nil, m)
		before := m.Snapshot()
		st := before
		corruptions[int(which)%len(corruptions)](&st)
		if err := m.Restore(st); err == nil {
			return false
		}
		return m.Snapshot() == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRestoreNamesFailingField: a rejected restore names the field that
// failed, the indexed and per-mechanism fields included.
func TestRestoreNamesFailingField(t *testing.T) {
	tr, err := NewTracker(7000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(DefaultModelConfig(), 70)
	if err != nil {
		t.Fatal(err)
	}
	ts := tr.Snapshot()
	ts.AhByRange[2] = -1
	ms := m.Snapshot()
	ms.ByMechanism[Sulphation-1] = math.NaN()
	hs := m.Snapshot()
	hs.Hours = math.Inf(1)
	for _, c := range []struct {
		want string
		err  error
	}{
		{"ah by range[2]", tr.Restore(ts)},
		{"sulphation stress", m.Restore(ms)},
		{"hours", m.Restore(hs)},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("restore error %v, want one naming %q", c.err, c.want)
		}
	}
}
