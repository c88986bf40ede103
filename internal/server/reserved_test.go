package server

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

// scratchReserved is the definition ReservedUtilization and ActiveVMCount
// cache: the peak demands of the hosted VMs that have not completed,
// summed in list order, and how many of them there are.
func scratchReserved(s *Server) (float64, int) {
	var u float64
	var n int
	for _, v := range s.VMs() {
		if v.State() != vm.Completed {
			u += v.Profile().PeakUtilization
			n++
		}
	}
	return u, n
}

// TestReservedUtilizationMatchesScratchSum drives random sequences of every
// operation that changes the VM list or completes a VM, and checks after
// each that the cached reservation is bit-equal to the from-scratch sum
// and the cached active count equals the from-scratch count.
func TestReservedUtilizationMatchesScratchSum(t *testing.T) {
	spec := DefaultSpec()
	spec.CPUCapacity = 6 // room for a dozen VMs, so long sums are checked too
	kinds := workload.Kinds()
	prop := func(seed uint64, ops []uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 0))
		s, err := New("prop", spec)
		if err != nil {
			t.Fatal(err)
		}
		for step, op := range ops {
			switch op % 7 {
			case 0, 1: // attach a fresh VM when it fits
				p, err := workload.ProfileFor(kinds[rng.IntN(len(kinds))])
				if err != nil {
					t.Fatal(err)
				}
				v, err := vm.New(fmt.Sprintf("v%d", step), p)
				if err != nil {
					t.Fatal(err)
				}
				if s.CanHost(v) {
					if err := s.Attach(v); err != nil {
						t.Fatal(err)
					}
				}
			case 2: // detach one VM, or send it away on a migration
				if n := s.VMCount(); n > 0 {
					v, err := s.Detach(s.VMAt(rng.IntN(n)).ID())
					if err != nil {
						t.Fatal(err)
					}
					if rng.IntN(2) == 0 && v.BeginMigration(time.Hour) == nil {
						if err := s.Attach(v); err != nil {
							t.Fatal(err)
						}
					}
				}
			case 3:
				s.DetachCompleted()
			case 4: // step, long enough that jobs often complete
				s.Step(time.Duration(1+rng.IntN(600)) * time.Minute)
			case 5:
				s.SetPowered(!s.Powered())
			case 6:
				fresh, err := New("prop", spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Restore(s.Snapshot()); err != nil {
					t.Fatal(err)
				}
				s = fresh
			}
			want, active := scratchReserved(s)
			if got := s.ReservedUtilization(); math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("after op %d (%d): reserved %v, scratch sum %v", step, op%7, got, want)
				return false
			}
			if got := s.ActiveVMCount(); got != active {
				t.Logf("after op %d (%d): active count %d, scratch count %d", step, op%7, got, active)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSetPoweredDoesNotAllocate pins the demand probe's power toggle, which
// the engine runs on every dark server every tick, at zero allocations with
// migrating and completed VMs on board.
func TestSetPoweredDoesNotAllocate(t *testing.T) {
	s := newServer(t)
	done := newVM(t, "done", workload.WordCount)
	moving := newVM(t, "moving", workload.WordCount)
	svc := newVM(t, "svc", workload.WebServing)
	for _, v := range []*vm.VM{done, moving, svc} {
		if err := s.Attach(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := moving.BeginMigration(48 * time.Hour); err != nil {
		t.Fatal(err)
	}
	s.Step(24 * time.Hour)
	if done.State() != vm.Completed || moving.State() != vm.Migrating {
		t.Fatalf("setup: states %v/%v, want completed/migrating", done.State(), moving.State())
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.SetPowered(false)
		s.SetPowered(true)
	})
	if allocs != 0 {
		t.Errorf("SetPowered toggle allocates %v times per run, want 0", allocs)
	}
	if done.State() != vm.Completed || moving.State() != vm.Migrating || svc.State() != vm.Running {
		t.Errorf("toggle moved states to %v/%v/%v", done.State(), moving.State(), svc.State())
	}
}
