package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/server"
	"github.com/green-dc/baat/internal/signal"
	"github.com/green-dc/baat/internal/units"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

// threePassMinWeightedAging is the reference the one-sweep pick must agree
// with: up to three full passes over the live nodes, each with a looser
// filter — trusted and at or above minSoC, then trusted, then any.
func threePassMinWeightedAging(nodes []*node.Node, v *vm.VM, exclude *node.Node, minSoC float64) *node.Node {
	const tie = 1e-3
	pick := func(requireSoC, requireTrusted bool) *node.Node {
		var best *node.Node
		bestScore, bestSoC := 0.0, 0.0
		for _, n := range nodes {
			if n == exclude || !n.Server().CanHost(v) {
				continue
			}
			if requireTrusted && n.MetricsSuspect() {
				continue
			}
			soc := n.Battery().SoC()
			if requireSoC && soc < minSoC {
				continue
			}
			score := aging.WeightedAging(n.Metrics(), aging.DemandSensitivity(v.Profile().DemandClass()))
			better := best == nil ||
				score < bestScore-tie ||
				(score < bestScore+tie && soc > bestSoC)
			if better {
				best, bestScore, bestSoC = n, score, soc
			}
		}
		return best
	}
	if best := pick(true, true); best != nil {
		return best
	}
	if best := pick(false, true); best != nil {
		return best
	}
	return pick(false, false)
}

// randomFleet builds a fleet of mixed history: batteries drained for a
// random while (so scores differ by far less than the 1e-3 tie band), some
// recharged (so scores also differ by more), a random load of up to maxVMs
// VMs, and a few nodes whose metrics are quarantined by a NaN sensor
// sample.
func randomFleet(t *testing.T, rng *rand.Rand, size, maxVMs int) []*node.Node {
	t.Helper()
	kinds := workload.Kinds()
	nodes := make([]*node.Node, size)
	for i := range nodes {
		n, err := node.New(fmt.Sprintf("n%d", i), node.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		load := newVM(t, n.ID()+"-load", workload.SoftwareTesting)
		if err := n.Server().Attach(load); err != nil {
			t.Fatal(err)
		}
		for range rng.IntN(600) {
			if err := n.Step(time.Minute, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.Server().Detach(load.ID()); err != nil {
			t.Fatal(err)
		}
		if rng.IntN(3) == 0 {
			for range rng.IntN(240) {
				if err := n.Step(time.Minute, 0, 400); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rng.IntN(5) == 0 {
			n.SetSensorFault(faults.SensorFault{Mode: faults.ModeNaN})
			if err := n.Step(time.Minute, 0, 0); err != nil {
				t.Fatal(err)
			}
			n.SetSensorFault(faults.SensorFault{})
		}
		for j := range 1 + rng.IntN(maxVMs) {
			v := newVM(t, fmt.Sprintf("%s-vm%d", n.ID(), j), kinds[rng.IntN(len(kinds))])
			if n.Server().CanHost(v) {
				if err := n.Server().Attach(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		nodes[i] = n
	}
	return nodes
}

// TestOneSweepPickMatchesThreePassReference checks the Control view's pick
// and BAAT's live PlaceVM against the three-pass reference over random
// fleets, with and without an excluded source, across minSoC values that
// leave the trusted tiers full or empty, and through migrations that move
// reservations under a loaded view. Fleets of 65–200 nodes (never a
// multiple of 64) span several bitmap words, and their queries ask about
// more distinct VM peaks than the view keeps bitmaps for.
func TestOneSweepPickMatchesThreePassReference(t *testing.T) {
	kinds := workload.Kinds()
	minSoCs := []float64{0, aging.DeepDischargeSoC, 0.5, 0.9, 1.1}
	var picks, nearTies, fallbacks, none, freed, filled int
	for _, fleets := range []struct {
		seeds     uint64
		min, max  int
		anyPeak   bool // queries also draw peaks no workload kind has
		streamTag uint64
	}{
		{seeds: 30, min: 4, max: 15, streamTag: 7},
		{seeds: 6, min: 65, max: 200, anyPeak: true, streamTag: 65},
	} {
		for seed := range fleets.seeds {
			rng := rand.New(rand.NewPCG(seed, fleets.streamTag))
			maxVMs := 3
			if seed%4 == 0 {
				maxVMs = 8 // fleets this full often have no host at all
			}
			size := fleets.min + rng.IntN(fleets.max-fleets.min+1)
			if size%64 == 0 {
				size++
			}
			ctx := &Context{Nodes: randomFleet(t, rng, size, maxVMs)}
			var cv candidateView
			cv.load(ctx.Nodes)
			for q := range 40 {
				v := newVM(t, fmt.Sprintf("q%d", q), kinds[rng.IntN(len(kinds))])
				if fleets.anyPeak && rng.IntN(2) == 0 {
					v = vmWithPeak(t, v, float64(1+rng.IntN(20))/20)
				}
				minSoC := minSoCs[rng.IntN(len(minSoCs))]
				exclude := rng.IntN(len(ctx.Nodes)+1) - 1
				var excludeNode *node.Node
				if exclude >= 0 {
					excludeNode = ctx.Nodes[exclude]
				}
				want := threePassMinWeightedAging(ctx.Nodes, v, excludeNode, minSoC)
				got := cv.minWeightedAging(v, exclude, minSoC)
				if (got < 0) != (want == nil) || got >= 0 && ctx.Nodes[got] != want {
					t.Fatalf("%d nodes, seed %d query %d: view picked index %d, reference %s", size, seed, q, got, nodeID(want))
				}
				placed, err := build(t, "baat", nil).PlaceVM(ctx, v)
				if ref := threePassMinWeightedAging(ctx.Nodes, v, nil, aging.DeepDischargeSoC); placed != ref || (err != nil) != (ref == nil) {
					t.Fatalf("%d nodes, seed %d query %d: PlaceVM picked %s (%v), reference %s", size, seed, q, nodeID(placed), err, nodeID(ref))
				}
				picks++
				switch {
				case want == nil:
					none++
				case want.MetricsSuspect() || want.Battery().SoC() < minSoC:
					fallbacks++
				}
				if hasNearTie(ctx.Nodes, v, want) {
					nearTies++
				}
				// Move a VM to the picked node now and then, so later queries
				// run on reservations the view re-read after a migration:
				// the source may now fit a peak it did not, the destination
				// may no longer fit one it did.
				if got >= 0 && exclude >= 0 && rng.IntN(3) == 0 {
					src, dst := ctx.Nodes[exclude].Server(), ctx.Nodes[got].Server()
					if mv := migratableVM(ctx.Nodes[exclude]); mv != nil && dst.CanHost(mv) {
						srcFit, dstFit := kindFits(src), kindFits(dst)
						if err := cv.migrate(ctx, exclude, got, mv, time.Minute); err != nil {
							t.Fatal(err)
						}
						if kindFits(src) > srcFit {
							freed++
						}
						if kindFits(dst) < dstFit {
							filled++
						}
					}
				}
			}
		}
	}
	if nearTies == 0 || fallbacks == 0 || none == 0 || freed == 0 || filled == 0 {
		t.Fatalf("coverage: %d picks, %d with a near-tie, %d from a fallback tier, %d with no host; %d migrations freed a source, %d filled a destination",
			picks, nearTies, fallbacks, none, freed, filled)
	}
}

// TestViewLoadForgetsTheLastPass loads the view, picks from it, moves the
// fleet (metrics and state of charge by stepping every node, reservations
// by changing its load) and loads the view again, three times, and then
// loads a shorter prefix of the fleet, checking every pick against the
// three-pass reference: a class score column or a fit bitmap that
// survived load would still answer for the old fleet.
func TestViewLoadForgetsTheLastPass(t *testing.T) {
	kinds := workload.Kinds()
	var moved int
	for seed := range uint64(4) {
		rng := rand.New(rand.NewPCG(seed, 11))
		nodes := randomFleet(t, rng, 65+rng.IntN(60), 3)
		var cv candidateView
		// pickAll loads fleet into the view and checks one pick per
		// workload kind and minSoC.
		pickAll := func(fleet []*node.Node, pass int) []int {
			cv.load(fleet)
			var picks []int
			for q, k := range kinds {
				v := newVM(t, fmt.Sprintf("p%d-q%d", pass, q), k)
				for _, minSoC := range []float64{0, aging.DeepDischargeSoC, 0.9} {
					want := threePassMinWeightedAging(fleet, v, nil, minSoC)
					got := cv.minWeightedAging(v, -1, minSoC)
					if (got < 0) != (want == nil) || got >= 0 && fleet[got] != want {
						t.Fatalf("seed %d pass %d, %d nodes, %v at minSoC %v: view picked index %d, reference %s",
							seed, pass, len(fleet), k, minSoC, got, nodeID(want))
					}
					picks = append(picks, got)
				}
			}
			return picks
		}
		var last []int
		for pass := range 3 {
			picks := pickAll(nodes, pass)
			if last != nil && !slices.Equal(picks, last) {
				moved++
			}
			last = picks
			// Age the picked nodes hard and the rest a little, and give a
			// quarter of the fleet a VM more or one fewer.
			for i, n := range nodes {
				steps, grant := 1+rng.IntN(30), units.Watt(400*rng.IntN(2))
				if slices.Contains(picks, i) {
					steps, grant = 120+rng.IntN(240), 0
				}
				for range steps {
					if err := n.Step(time.Minute, 0, grant); err != nil {
						t.Fatal(err)
					}
				}
				if rng.IntN(4) != 0 {
					continue
				}
				if v := migratableVM(n); v != nil && rng.IntN(2) == 0 {
					if _, err := n.Server().Detach(v.ID()); err != nil {
						t.Fatal(err)
					}
				} else if v := newVM(t, fmt.Sprintf("%s-p%d", n.ID(), pass), kinds[rng.IntN(len(kinds))]); n.Server().CanHost(v) {
					if err := n.Server().Attach(v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// No bit of the longer fleet's bitmaps may survive past the
		// shorter one's last node.
		pickAll(nodes[:1+rng.IntN(len(nodes)-1)], 3)
	}
	if moved == 0 {
		t.Fatal("no reload changed a pick, so a stale view would pass unseen")
	}
}

// vmWithPeak returns a VM like v whose profile peaks at peak instead.
func vmWithPeak(t *testing.T, v *vm.VM, peak float64) *vm.VM {
	t.Helper()
	p := v.Profile()
	p.PeakUtilization = peak
	w, err := vm.New(v.ID(), p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// kindFits counts the workload kinds a VM of which the server can host now.
func kindFits(srv *server.Server) int {
	var n int
	for _, k := range workload.Kinds() {
		p, _ := workload.ProfileFor(k) // every listed kind has a profile
		if server.Fits(srv.ReservedUtilization(), p.PeakUtilization, srv.Spec().CPUCapacity) {
			n++
		}
	}
	return n
}

// nodeID names a picked node, or "none".
func nodeID(n *node.Node) string {
	if n == nil {
		return "none"
	}
	return n.ID()
}

// hasNearTie reports whether another hostable node scores within the tie
// band of the picked one.
func hasNearTie(nodes []*node.Node, v *vm.VM, picked *node.Node) bool {
	if picked == nil {
		return false
	}
	sens := aging.DemandSensitivity(v.Profile().DemandClass())
	ref := aging.WeightedAging(picked.Metrics(), sens)
	for _, n := range nodes {
		if n == picked || !n.Server().CanHost(v) {
			continue
		}
		if d := aging.WeightedAging(n.Metrics(), sens) - ref; d > -agingTie && d < agingTie {
			return true
		}
	}
	return false
}

// TestBAATControlAllocFree pins BAAT's and BAAT-f's control pass at zero
// allocations once its view columns exist, on a 64-node fleet whose
// stressed half forces both the slowdown and the hiding arm to migrate
// on every pass.
func TestBAATControlAllocFree(t *testing.T) {
	for _, name := range []string{"baat", "baat-f"} {
		t.Run(name, func(t *testing.T) {
			nodes := newFleet(t, 64)
			home := map[*vm.VM]*node.Node{}
			for i, n := range nodes {
				for j := range 2 {
					v := newVM(t, fmt.Sprintf("%s-svc%d", n.ID(), j), workload.WebServing)
					if err := n.Server().Attach(v); err != nil {
						t.Fatal(err)
					}
					home[v] = n
				}
				if i%2 == 0 {
					drain(t, n, 0.2)
				}
			}
			forecast := signal.NewSolarForecaster(1, 3)
			forecast.ObserveDay(0.1)
			ctx := &Context{Nodes: nodes, Signals: signal.Signals{Solar: forecast}}
			p := build(t, name, nil)
			// sendHome undoes the last pass's migrations without allocating
			// (in-place Detach, Attach within capacity) and lets the moved
			// VMs finish their transfer, so every pass migrates afresh. It
			// counts the VMs it sends home: the last pass's migrations.
			var moved int
			sendHome := func() {
				for _, n := range nodes {
					srv := n.Server()
					for i := srv.VMCount() - 1; i >= 0; i-- {
						v := srv.VMAt(i)
						if h := home[v]; h != n {
							moved++
							if _, err := srv.Detach(v.ID()); err != nil {
								t.Fatal(err)
							}
							if err := h.Server().Attach(v); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for _, n := range nodes {
					n.Server().Step(vm.DefaultMigrationTime)
				}
			}
			const runs = 20
			allocs := testing.AllocsPerRun(runs, func() {
				sendHome()
				if err := p.Control(ctx); err != nil {
					t.Fatal(err)
				}
			})
			// sendHome ran before each of the runs+1 passes, so it counted
			// the migrations of all passes but the last.
			if moved < runs {
				t.Fatalf("%d migrations over %d passes: the fleet is not stressed enough to guard the migration path", moved, runs)
			}
			if allocs != 0 {
				t.Errorf("%s Control allocates %v times per pass, want 0", name, allocs)
			}
		})
	}
}
