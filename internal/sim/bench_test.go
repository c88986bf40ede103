package sim

// BenchmarkFleetStep measures the per-tick node-physics fan-out at
// production fleet sizes (the ROADMAP's "as fast as the hardware allows"
// axis). Fleets of 16 through 65536 nodes — warehouse scale, 1M with
// -long — run one simulated day per iteration, serially and across all
// CPUs, so `-bench=FleetStep` reports the parallel speedup directly. The
// equivalence tests in parallel_test.go guarantee the two variants compute
// identical results; this benchmark only measures wall time.
//
// CI runs it with `-benchtime=1x` (the Makefile's bench-smoke target);
// use the default benchtime for stable speedup numbers.

import (
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/solar"
)

// longFleet gates the warehouse-upper-bound size: a million nodes is a
// multi-minute benchmark, opt-in via `go test -bench=FleetStep -long`.
var longFleet = flag.Bool("long", false, "include the 1M-node fleet benchmark size")

// largeFleetNodes is where benchFleet switches to warehouse provisioning:
// direct service attachment instead of the O(VMs × nodes) placement pass.
const largeFleetNodes = 16384

// benchFleet builds a fleet where one node in four hosts a persistent
// service, so the timed region mixes the powered and scheduled-off step
// paths like a real consolidated datacenter.
func benchFleet(b *testing.B, nodes, workers int) *Simulator {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Policy = core.PolicySpec{Name: "ebuff"}
	cfg.Nodes = nodes
	cfg.Workers = workers
	cfg.Tick = 5 * time.Minute
	cfg.JobsPerDay = 0
	cfg.ServiceVMs = nodes / 4
	cfg.Solar.Scale = 1.5 * float64(nodes) / 6
	if nodes >= largeFleetNodes {
		cfg.ServiceVMs = 0 // attached directly below
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if nodes >= largeFleetNodes {
		// Same workload mix the policy would produce — one service VM per
		// four nodes, spread across the fleet — without the quadratic
		// placement pass, which at 65k+ nodes would dominate setup.
		if err := s.ProvisionServices(nodes / 4); err != nil {
			b.Fatal(err)
		}
	}
	// Warm up one day outside the timer so service placement (the one-off
	// O(VMs × nodes) scheduling pass) stays out of the step measurement.
	if _, err := s.RunDay(solar.Sunny); err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkFleetStep(b *testing.B) {
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	sizes := []int{16, 256, 2048, 16384, 65536}
	if *longFleet {
		sizes = append(sizes, 1<<20)
	}
	for _, nodes := range sizes {
		for _, workers := range workerCounts {
			name := fmt.Sprintf("nodes=%d/workers=%d", nodes, workers)
			b.Run(name, func(b *testing.B) {
				s := benchFleet(b, nodes, workers)
				ticksPerDay := int(24 * time.Hour / s.cfg.Tick)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.RunDay(solar.Cloudy); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				steps := float64(b.N*ticksPerDay*nodes) / b.Elapsed().Seconds()
				b.ReportMetric(steps, "node-steps/s")
			})
		}
	}
}
