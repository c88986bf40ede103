package core

import (
	"slices"
	"time"

	"github.com/green-dc/baat/internal/aging"
	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/server"
	"github.com/green-dc/baat/internal/vm"
)

// candidateView is the columnar fleet snapshot BAAT's control pass picks
// migration targets from. It is loaded once at the top of Control and
// stays exact for the whole pass: nothing steps inside Control, so every
// node's state of charge, suspect flag and aging metrics are frozen, and
// the one thing that moves — reservations — is re-read for both ends of
// every migration the pass makes. The columns are reused from pass to
// pass, so a loaded view costs no allocation.
type candidateView struct {
	soc      []float64
	suspect  []bool
	metrics  []aging.Metrics
	reserved []float64
	capacity []float64
	// scores is the hiding arm's all-High Eq 6 score per trusted node.
	scores []float64
}

// load snapshots the fleet into the columns.
func (cv *candidateView) load(nodes []*node.Node) {
	n := len(nodes)
	cv.soc = slices.Grow(cv.soc[:0], n)[:n]
	cv.suspect = slices.Grow(cv.suspect[:0], n)[:n]
	cv.metrics = slices.Grow(cv.metrics[:0], n)[:n]
	cv.reserved = slices.Grow(cv.reserved[:0], n)[:n]
	cv.capacity = slices.Grow(cv.capacity[:0], n)[:n]
	cv.scores = slices.Grow(cv.scores[:0], n)[:n]
	for i, nd := range nodes {
		srv := nd.Server()
		cv.soc[i] = nd.SoC()
		cv.suspect[i] = nd.MetricsSuspect()
		cv.metrics[i] = nd.Metrics()
		cv.reserved[i] = srv.ReservedUtilization()
		cv.capacity[i] = srv.Spec().CPUCapacity
	}
}

// minWeightedAging returns the index of the node the aging-driven pick
// (agingPick) chooses for v among the nodes that can host it, skipping
// node exclude, or -1.
func (cv *candidateView) minWeightedAging(v *vm.VM, exclude int, minSoC float64) int {
	prof := v.Profile()
	sens := aging.DemandSensitivity(prof.DemandClass())
	pick := newAgingPick(minSoC)
	for i := range cv.soc {
		if i == exclude || !server.Fits(cv.reserved[i], prof.PeakUtilization, cv.capacity[i]) {
			continue
		}
		pick.offer(i, cv.suspect[i], cv.soc[i], aging.WeightedAging(cv.metrics[i], sens))
	}
	return pick.best()
}

// migrate moves v from node src to node dst through the telemetry-counting
// migrate and re-reads both nodes' reservations.
func (cv *candidateView) migrate(ctx *Context, src, dst int, v *vm.VM, transfer time.Duration) error {
	if err := migrate(ctx, ctx.Nodes[src], ctx.Nodes[dst], v.ID(), transfer); err != nil {
		return err
	}
	cv.reserved[src] = ctx.Nodes[src].Server().ReservedUtilization()
	cv.reserved[dst] = ctx.Nodes[dst].Server().ReservedUtilization()
	return nil
}
