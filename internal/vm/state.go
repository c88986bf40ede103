package vm

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/workload"
)

// State is the serializable state of a VM: its identity, the hosted
// profile (jobs are drawn at runtime, so the profile is per-VM state, not
// configuration), and the full lifecycle position.
type State struct {
	ID        string           `json:"id"`
	Profile   workload.Profile `json:"profile"`
	Lifecycle Lifecycle        `json:"lifecycle"`
	Progress  float64          `json:"progress"`
	Elapsed   time.Duration    `json:"elapsed"`
	Migrating time.Duration    `json:"migrating"`
}

// Snapshot captures the VM's state.
func (v *VM) Snapshot() State {
	return State{
		ID:        v.id,
		Profile:   v.profile,
		Lifecycle: v.state,
		Progress:  v.progress,
		Elapsed:   v.elapsed,
		Migrating: v.migrating,
	}
}

// FromState reconstructs a VM from a snapshot, validating every field so
// a corrupt checkpoint is rejected rather than scheduled.
func FromState(st State) (*VM, error) {
	v, err := New(st.ID, st.Profile)
	if err != nil {
		return nil, err
	}
	if err := v.Restore(st); err != nil {
		return nil, err
	}
	return v, nil
}

// Restore overwrites the VM's state from a snapshot. The snapshot must
// describe the same VM (matching ID) and pass validation.
func (v *VM) Restore(st State) error {
	if st.ID != v.id {
		return fmt.Errorf("vm %s: restore: snapshot is for %q", v.id, st.ID)
	}
	if err := st.Profile.Validate(); err != nil {
		return fmt.Errorf("vm %s: restore: %w", v.id, err)
	}
	switch st.Lifecycle {
	case Running, Paused, Migrating, Completed:
	default:
		return fmt.Errorf("vm %s: restore: unknown lifecycle %v", v.id, st.Lifecycle)
	}
	if math.IsNaN(st.Progress) || st.Progress < 0 ||
		(!st.Profile.Service && st.Progress > st.Profile.WorkUnits) {
		return fmt.Errorf("vm %s: restore: progress %v out of range", v.id, st.Progress)
	}
	if st.Elapsed < 0 || st.Migrating < 0 {
		return fmt.Errorf("vm %s: restore: negative durations", v.id)
	}
	if (st.Lifecycle == Migrating) != (st.Migrating > 0) {
		return fmt.Errorf("vm %s: restore: migration pause %v inconsistent with lifecycle %v",
			v.id, st.Migrating, st.Lifecycle)
	}
	v.profile = st.Profile
	v.state = st.Lifecycle
	v.progress = st.Progress
	v.elapsed = st.Elapsed
	v.migrating = st.Migrating
	return nil
}
