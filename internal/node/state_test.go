package node

// Property tests over the node snapshot/restore pair, on every battery
// tier: for any reachable node state — VMs attached, ticks stepped, sensor
// faults installed — Restore(Snapshot()) is the identity, and corrupted
// snapshots are rejected without mutating the node.

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/units"
	"github.com/green-dc/baat/internal/workload"
)

// walkedNode builds a node on battery tier kind with a hosted service and
// steps it through a random solar trace so the snapshot covers live
// battery, aging, and sensor state.
func walkedNode(t *testing.T, kind battery.Kind, seed int64) *Node {
	t.Helper()
	n := newNode(t, func(c *Config) {
		cfg, err := c.WithBatteryModel(kind)
		if err != nil {
			t.Fatal(err)
		}
		*c = cfg
		c.AgingConfig.AccelFactor = 20
	})
	attachVM(t, n, "vm-1", workload.WebServing)
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	for i := 0; i < 50; i++ {
		solar := units.Watt(rng.Float64() * 400)
		if err := n.Step(time.Minute, solar, solar/2); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestQuickNodeSnapshotRestoreIdentity: a node restored from a snapshot
// reports that snapshot exactly, however far it has drifted since.
func TestQuickNodeSnapshotRestoreIdentity(t *testing.T) {
	for _, kind := range battery.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			prop := func(seed int64) bool {
				n := walkedNode(t, kind, seed)
				want := n.Snapshot()

				// Drift: more ticks move the clock, battery, and aging state.
				rng := rand.New(rand.NewPCG(uint64(seed), 1))
				for i := 0; i < 25; i++ {
					if err := n.Step(time.Minute, units.Watt(rng.Float64()*400), 0); err != nil {
						t.Fatal(err)
					}
				}
				if err := n.Restore(want); err != nil {
					t.Logf("seed %d: restore of own snapshot rejected: %v", seed, err)
					return false
				}
				return reflect.DeepEqual(n.Snapshot(), want)
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestQuickNodeRestoreRejectsCorrupt: a poisoned snapshot — wrong identity,
// NaN, negative counters, out-of-range sensor mode — must fail loudly and
// leave the node byte-identical. The node drifts past the snapshot first, so a
// part committed before a later part's check (the server, restored live)
// would show.
func TestQuickNodeRestoreRejectsCorrupt(t *testing.T) {
	corruptions := []struct {
		name string
		f    func(*State)
	}{
		{"wrong node id", func(st *State) { st.ID = "someone-else" }},
		{"negative clock", func(st *State) { st.Clock = -time.Second }},
		{"nan soc floor", func(st *State) { st.SoCFloor = math.NaN() }},
		{"floor at one", func(st *State) { st.SoCFloor = 1 }},
		{"nan utility energy", func(st *State) { st.UtilityWh = units.WattHour(math.NaN()) }},
		{"negative solar energy", func(st *State) { st.SolarWh = -1 }},
		{"negative missed", func(st *State) { st.Missed = -1 }},
		{"negative quarantine", func(st *State) { st.SuspectUntil = -time.Minute }},
		{"unknown sensor mode", func(st *State) { st.Sensor.Mode = 99 }},
		{"nan pack soc", func(st *State) { st.Pack.SoC = math.NaN() }},
		{"negative tracker ah", func(st *State) { st.Tracker.AhOut = -1 }},
		{"nan model fade", func(st *State) { st.Model.CapFade = math.NaN() }},
	}
	for _, kind := range battery.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			prop := func(seed int64) bool {
				n := walkedNode(t, kind, seed)
				snap := n.Snapshot()
				for i := 0; i < 25; i++ {
					if err := n.Step(time.Minute, 0, 0); err != nil {
						t.Fatal(err)
					}
				}
				before := n.Snapshot()
				for _, c := range corruptions {
					st := snap
					c.f(&st)
					if err := n.Restore(st); err == nil {
						t.Logf("seed %d: corrupt state (%s) accepted", seed, c.name)
						return false
					}
					if !reflect.DeepEqual(n.Snapshot(), before) {
						t.Logf("seed %d: rejected %s mutated the node", seed, c.name)
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}
