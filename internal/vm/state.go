package vm

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/workload"
)

// State is the serializable state of a VM: its identity, the hosted
// profile (jobs are drawn at runtime, so the profile is per-VM state, not
// configuration), and the full lifecycle position. A VM holds it live, so
// Snapshot returns it as is.
type State struct {
	ID        string           `json:"id"`
	Profile   workload.Profile `json:"profile"`
	Lifecycle Lifecycle        `json:"lifecycle"`
	Progress  float64          `json:"progress"`  // work units completed (batch)
	Elapsed   time.Duration    `json:"elapsed"`   // wall time while running (drives service phase)
	Migrating time.Duration    `json:"migrating"` // remaining migration pause
}

// Snapshot captures the VM's state.
func (v *VM) Snapshot() State { return v.st }

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
	if st.ID != v.st.ID {
		return fmt.Errorf("vm %s: restore: snapshot is for %q", v.st.ID, st.ID)
	}
	if err := st.Profile.Validate(); err != nil {
		return fmt.Errorf("vm %s: restore: %w", v.st.ID, err)
	}
	switch st.Lifecycle {
	case Running, Paused, Migrating, Completed:
	default:
		return fmt.Errorf("vm %s: restore: unknown lifecycle %v", v.st.ID, st.Lifecycle)
	}
	if math.IsNaN(st.Progress) || st.Progress < 0 ||
		(!st.Profile.Service && st.Progress > st.Profile.WorkUnits) {
		return fmt.Errorf("vm %s: restore: progress %v out of range", v.st.ID, st.Progress)
	}
	if st.Elapsed < 0 || st.Migrating < 0 {
		return fmt.Errorf("vm %s: restore: negative durations", v.st.ID)
	}
	if (st.Lifecycle == Migrating) != (st.Migrating > 0) {
		return fmt.Errorf("vm %s: restore: migration pause %v inconsistent with lifecycle %v",
			v.st.ID, st.Migrating, st.Lifecycle)
	}
	v.st = st
	return nil
}
