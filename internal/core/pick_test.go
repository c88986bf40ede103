package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/faults"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/signal"
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
// reservations under a loaded view.
func TestOneSweepPickMatchesThreePassReference(t *testing.T) {
	kinds := workload.Kinds()
	minSoCs := []float64{0, aging.DeepDischargeSoC, 0.5, 0.9, 1.1}
	var picks, nearTies, fallbacks, none int
	for seed := range uint64(30) {
		rng := rand.New(rand.NewPCG(seed, 7))
		maxVMs := 3
		if seed%4 == 0 {
			maxVMs = 8 // fleets this full often have no host at all
		}
		ctx := &Context{Nodes: randomFleet(t, rng, 4+rng.IntN(12), maxVMs)}
		var cv candidateView
		cv.load(ctx.Nodes)
		for q := range 40 {
			v := newVM(t, fmt.Sprintf("q%d", q), kinds[rng.IntN(len(kinds))])
			minSoC := minSoCs[rng.IntN(len(minSoCs))]
			exclude := rng.IntN(len(ctx.Nodes)+1) - 1
			var excludeNode *node.Node
			if exclude >= 0 {
				excludeNode = ctx.Nodes[exclude]
			}
			want := threePassMinWeightedAging(ctx.Nodes, v, excludeNode, minSoC)
			got := cv.minWeightedAging(v, exclude, minSoC)
			if (got < 0) != (want == nil) || got >= 0 && ctx.Nodes[got] != want {
				t.Fatalf("seed %d query %d: view picked index %d, reference %s", seed, q, got, nodeID(want))
			}
			placed, err := build(t, "baat", nil).PlaceVM(ctx, v)
			if ref := threePassMinWeightedAging(ctx.Nodes, v, nil, aging.DeepDischargeSoC); placed != ref || (err != nil) != (ref == nil) {
				t.Fatalf("seed %d query %d: PlaceVM picked %s (%v), reference %s", seed, q, nodeID(placed), err, nodeID(ref))
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
			// run on reservations the view re-read after a migration.
			if got >= 0 && exclude >= 0 && rng.IntN(3) == 0 {
				if mv := migratableVM(ctx.Nodes[exclude]); mv != nil && ctx.Nodes[got].Server().CanHost(mv) {
					if err := cv.migrate(ctx, exclude, got, mv, time.Minute); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if nearTies == 0 || fallbacks == 0 || none == 0 {
		t.Fatalf("coverage: %d picks, %d with a near-tie, %d from a fallback tier, %d with no host", picks, nearTies, fallbacks, none)
	}
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
