package core

import (
	"math/bits"
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
//
// Because the metrics are frozen, a node's Eq 6 score under one Table 3
// demand class is fixed for the pass: the view scores each class once,
// on its first use. Because only migrations move reservations, the set
// of nodes a VM of a given peak fits on is kept as a bitmap per peak
// asked about, and each migration re-derives the bits of its two ends.
type candidateView struct {
	soc      []float64
	suspect  []bool
	metrics  []aging.Metrics
	reserved []float64
	capacity []float64
	// cols backs soc, reserved, capacity and, after them, one Eq 6 score
	// column per demand class (classScores), valid once scored marks it in
	// this pass.
	cols   []float64
	scored [numClasses]bool
	// fits holds fitSlots bitmaps of one bit per node; bitmap k, valid for
	// k < nPeaks, has bit i set when a VM of peak utilization peaks[k]
	// fits on node i.
	fits   []uint64
	peaks  [fitSlots]float64
	nPeaks int
}

// numClasses is the number of Table 3 demand classes.
const numClasses = 4

// fitSlots is how many distinct VM peaks a pass keeps a bitmap for; the
// six prototype workloads have five. A pass that asks about more
// rebuilds the last slot.
const fitSlots = 8

// load snapshots the fleet into the columns and forgets the last pass's
// scores and bitmaps.
func (cv *candidateView) load(nodes []*node.Node) {
	n := len(nodes)
	cv.cols = slices.Grow(cv.cols[:0], (3+numClasses)*n)[:(3+numClasses)*n]
	cv.soc, cv.reserved, cv.capacity = cv.cols[:n], cv.cols[n:2*n], cv.cols[2*n:3*n]
	cv.scored = [numClasses]bool{}
	words := (n + 63) / 64
	cv.fits = slices.Grow(cv.fits[:0], fitSlots*words)[:fitSlots*words]
	cv.nPeaks = 0
	cv.suspect = slices.Grow(cv.suspect[:0], n)[:n]
	cv.metrics = slices.Grow(cv.metrics[:0], n)[:n]
	for i, nd := range nodes {
		srv := nd.Server()
		cv.soc[i] = nd.SoC()
		cv.suspect[i] = nd.MetricsSuspect()
		cv.metrics[i] = nd.Metrics()
		cv.reserved[i] = srv.ReservedUtilization()
		cv.capacity[i] = srv.Spec().CPUCapacity
	}
}

// classScores returns every node's Eq 6 score under the class's Table 3
// sensitivity, scoring the class on its first use in the pass.
func (cv *candidateView) classScores(c aging.DemandClass) []float64 {
	k := 0
	if c.LargePower {
		k |= 1
	}
	if c.MoreEnergy {
		k |= 2
	}
	n := len(cv.soc)
	col := cv.cols[(3+k)*n : (4+k)*n]
	if !cv.scored[k] {
		sens := aging.DemandSensitivity(c)
		for i := range col {
			col[i] = aging.WeightedAging(cv.metrics[i], sens)
		}
		cv.scored[k] = true
	}
	return col
}

// fitBits returns the bitmap of the nodes a VM of the given peak fits on,
// building it on the peak's first use in the pass.
func (cv *candidateView) fitBits(peak float64) []uint64 {
	w := len(cv.fits) / fitSlots
	k := 0
	for ; k < cv.nPeaks; k++ {
		if cv.peaks[k] == peak {
			return cv.fits[k*w : (k+1)*w]
		}
	}
	if k == fitSlots {
		k-- // every slot is taken: rebuild the last one
	} else {
		cv.nPeaks++
	}
	cv.peaks[k] = peak
	bm := cv.fits[k*w : (k+1)*w]
	clear(bm) // a larger fleet's pass may have left bits past the last node
	for i := range cv.reserved {
		cv.refit(k, i)
	}
	return bm
}

// refit sets node i's bit in bitmap k to whether a VM of that bitmap's
// peak fits on it now.
func (cv *candidateView) refit(k, i int) {
	w := len(cv.fits) / fitSlots
	word, bit := &cv.fits[k*w+i>>6], uint64(1)<<(i&63)
	if server.Fits(cv.reserved[i], cv.peaks[k], cv.capacity[i]) {
		*word |= bit
	} else {
		*word &^= bit
	}
}

// minWeightedAging returns the index of the node the aging-driven pick
// (agingPick) chooses for v among the nodes that can host it, skipping
// node exclude, or -1. It offers the hostable nodes in fleet order.
func (cv *candidateView) minWeightedAging(v *vm.VM, exclude int, minSoC float64) int {
	prof := v.Profile()
	scores := cv.classScores(prof.DemandClass())
	pick := newAgingPick(minSoC)
	for w, word := range cv.fitBits(prof.PeakUtilization) {
		for ; word != 0; word &= word - 1 {
			if i := w<<6 | bits.TrailingZeros64(word); i != exclude {
				pick.offer(i, cv.suspect[i], cv.soc[i], scores[i])
			}
		}
	}
	return pick.best()
}

// migrate moves v from node src to node dst through the telemetry-counting
// migrate, re-reads both nodes' reservations and re-derives their bits in
// every bitmap of the pass.
func (cv *candidateView) migrate(ctx *Context, src, dst int, v *vm.VM, transfer time.Duration) error {
	if err := migrate(ctx, ctx.Nodes[src], ctx.Nodes[dst], v.ID(), transfer); err != nil {
		return err
	}
	for _, i := range [2]int{src, dst} {
		cv.reserved[i] = ctx.Nodes[i].Server().ReservedUtilization()
		for k := range cv.nPeaks {
			cv.refit(k, i)
		}
	}
	return nil
}
