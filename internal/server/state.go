package server

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/vm"
)

// State is the serializable state of a Server: power and DVFS position,
// accumulated work and downtime, and the full state of every hosted
// VM. The Spec is construction-time input.
type State struct {
	own
	VMs []vm.State `json:"vms"`
}

// own is the part of State a Server holds live; its hosted VMs hold the
// rest.
type own struct {
	FreqIdx    int           `json:"freq_idx"`
	Powered    bool          `json:"powered"`
	Throughput float64       `json:"throughput"` // accumulated work units (Fig 20's metric)
	Downtime   time.Duration `json:"downtime"`
}

// Snapshot captures the server's state, including its hosted VMs.
func (s *Server) Snapshot() State {
	st := State{own: s.st}
	for _, v := range s.vms {
		st.VMs = append(st.VMs, v.Snapshot())
	}
	return st
}

// Restore overwrites the server's state from a snapshot, rebuilding its
// hosted VMs from their serialized states. Invalid state is rejected
// wholesale before anything is mutated.
func (s *Server) Restore(st State) error {
	if st.FreqIdx < 0 || st.FreqIdx >= len(s.spec.FreqLevels) {
		return fmt.Errorf("server %s: restore: DVFS index %d out of range [0, %d)",
			s.id, st.FreqIdx, len(s.spec.FreqLevels))
	}
	if math.IsNaN(st.Throughput) || math.IsInf(st.Throughput, 0) || st.Throughput < 0 {
		return fmt.Errorf("server %s: restore: throughput must be finite and non-negative, got %v",
			s.id, st.Throughput)
	}
	if st.Downtime < 0 {
		return fmt.Errorf("server %s: restore: negative downtime %v", s.id, st.Downtime)
	}
	vms := make([]*vm.VM, 0, len(st.VMs))
	for _, vst := range st.VMs {
		v, err := vm.FromState(vst)
		if err != nil {
			return fmt.Errorf("server %s: restore: %w", s.id, err)
		}
		vms = append(vms, v)
	}
	s.st = st.own
	s.vms = vms
	s.refreshReserved()
	return nil
}
