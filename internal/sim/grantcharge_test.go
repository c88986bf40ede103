package sim

import (
	"math"
	"math/rand"
	"testing"
)

// grantChargeRef is the charge split as the engine ran it before the
// covered-surplus skip: clear every grant, then walk the nodes in SoC order
// granting min(remaining, request) until nothing remains.
func grantChargeRef(req, snap []float64, power float64) []float64 {
	grant := make([]float64, len(req))
	if power > 0 {
		for _, idx := range sortRef(snap) {
			if power <= 0 {
				break
			}
			g := min(power, req[idx])
			grant[idx] = g
			power -= g
		}
	}
	return grant
}

// grantChargeFast is Simulator.grantCharge over plain slices: the requests
// are written into the grant slots in index order, and the SoC sort runs
// only when coversRequests cannot rule the order out.
func grantChargeFast(req, snap []float64, power float64) (grant []float64, sorted bool) {
	grant = make([]float64, len(req))
	if !(power > 0) {
		return grant, false
	}
	copy(grant, req)
	if coversRequests(grant, power) {
		return grant, false
	}
	grantBySoC(grant, runSortBySoC(snap), power)
	return grant, true
}

// randomRequest draws a charge request that is zero, subnormal, tiny,
// charger-sized or huge, so totals overflow now and then and the
// running remainder meets values across the whole exponent range.
func randomRequest(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(1<<20)) * 5e-324
	case 2:
		return rng.Float64() * 1e-300
	case 3:
		return math.Ldexp(rng.Float64(), rng.Intn(2100)-1074)
	case 4:
		return rng.Float64() * 1e308
	}
	return 100 + 400*rng.Float64()
}

// TestGrantChargeMatchesSortedLoop checks the covered-surplus skip bit for
// bit against the sorted loop on random fleets with SoC ties, at power
// exactly at the skip threshold, one float either side of it, inside the
// rounding margin just above the total request, and spread between zero
// and twice the total. Fleet sizes straddle radixMinNodes so both sort
// paths run.
func TestGrantChargeMatchesSortedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	trials, skipped := 0, 0
	for trial := 0; trial < 80_000; trial++ {
		n := 1 + rng.Intn(8)
		if trial%16 == 0 {
			n = radixMinNodes - 8 + rng.Intn(32)
		}
		req := make([]float64, n)
		snap := make([]float64, n)
		mode, c := rng.Intn(3), randomRequest(rng)
		for i := range req {
			switch mode {
			case 0: // charger-sized
				req[i] = 100 + 400*rng.Float64()
			case 1: // every class mixed
				req[i] = randomRequest(rng)
			default: // one class
				req[i] = c * (1 + rng.Float64())
			}
			// A 4-level grid forces exact SoC ties.
			snap[i] = float64(rng.Intn(4)) / 4
		}
		var total float64
		for _, r := range req {
			total += r
		}
		th := total * (1 + float64(n)*0x1p-51)
		powers := []float64{
			th, math.Nextafter(th, math.Inf(1)), math.Nextafter(th, math.Inf(-1)),
			// Inside the rounding margin, where the order can still matter.
			total, math.Nextafter(total, math.Inf(1)), total + (th-total)*rng.Float64(),
			2 * total * rng.Float64(), math.Inf(1), 0,
		}
		for _, p := range powers {
			want := grantChargeRef(req, snap, p)
			got, sorted := grantChargeFast(req, snap, p)
			trials++
			if !sorted {
				skipped++
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d, n=%d, power %v (threshold %v, sorted %v): node %d granted %v, sorted loop %v\nrequests %v\nsoc %v",
						trial, n, p, th, sorted, i, got[i], want[i], req, snap)
				}
			}
		}
	}
	if skipped == 0 || skipped == trials {
		t.Fatalf("skip taken on %d of %d trials; want both paths exercised", skipped, trials)
	}
}

// TestGrantChargeNonFiniteRequests: a NaN or +Inf request never takes
// the skip, so the sorted loop decides what every node gets.
func TestGrantChargeNonFiniteRequests(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		req := []float64{100, bad, 50}
		snap := []float64{0.5, 0.25, 0.75}
		for _, p := range []float64{1, 1e6, math.Inf(1)} {
			if coversRequests(req, p) {
				t.Fatalf("request %v, power %v: coversRequests = true, want the sorted path", bad, p)
			}
			want := grantChargeRef(req, snap, p)
			got, _ := grantChargeFast(req, snap, p)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("request %v, power %v: node %d granted %v, sorted loop %v", bad, p, i, got[i], want[i])
				}
			}
		}
	}
}
