// Package vm provides the virtual-machine abstraction BAAT schedules: the
// prototype hosts every workload in a Xen VM so it can be spawned, paused,
// and migrated between server nodes (DSN'15 §V-B).
//
// Migration is the actuator behind aging hiding and the preferred slowdown
// action (§IV-C); it is not free — the VM is paused for a transfer period,
// which is how BAAT-h's low-efficiency migration shows up as a throughput
// penalty (§VI-F).
package vm

import (
	"fmt"
	"time"

	"github.com/green-dc/baat/internal/workload"
)

// Lifecycle is a VM lifecycle state.
type Lifecycle int

// VM lifecycle states.
const (
	Running Lifecycle = iota + 1
	Paused
	Migrating
	Completed
)

// String returns the state name.
func (s Lifecycle) String() string {
	switch s {
	case Running:
		return "running"
	case Paused:
		return "paused"
	case Migrating:
		return "migrating"
	case Completed:
		return "completed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// DefaultMigrationTime is how long a live migration pauses the VM. The
// prototype's Xen stop-and-copy over gigabit Ethernet is on the order of a
// couple of minutes for the CloudSuite images.
const DefaultMigrationTime = 2 * time.Minute

// VM is one schedulable virtual machine. Not safe for concurrent use; the
// simulator owns all VMs and the control plane serializes commands.
type VM struct {
	// st is the VM's whole state in its checkpoint shape: Snapshot returns
	// it, and Restore validates a snapshot and assigns it.
	st State
}

// New creates a VM hosting the given workload profile.
func New(id string, p workload.Profile) (*VM, error) {
	if id == "" {
		return nil, fmt.Errorf("vm: id must not be empty")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("vm %s: %w", id, err)
	}
	return &VM{st: State{ID: id, Profile: p, Lifecycle: Running}}, nil
}

// ID returns the VM identifier.
func (v *VM) ID() string { return v.st.ID }

// Profile returns the hosted workload profile.
func (v *VM) Profile() workload.Profile { return v.st.Profile }

// State returns the lifecycle state.
func (v *VM) State() Lifecycle { return v.st.Lifecycle }

// Progress returns completed work units (batch jobs) .
func (v *VM) Progress() float64 { return v.st.Progress }

// Utilization returns the CPU share the VM demands right now.
// Completed, paused, and migrating VMs demand nothing.
func (v *VM) Utilization() float64 {
	if v.st.Lifecycle != Running {
		return 0
	}
	p := v.st.Profile
	if p.Service {
		// Services walk their phase pattern by wall time, one full cycle
		// every 8 hours (a typical diurnal request pattern).
		pos := v.st.Elapsed.Hours() / 8
		return p.UtilizationAt(pos)
	}
	if p.WorkUnits <= 0 {
		return 0
	}
	return p.UtilizationAt(v.st.Progress / p.WorkUnits)
}

// Pause checkpoints the VM (the prototype saves VM state when solar power
// disappears, §V-B).
func (v *VM) Pause() error {
	switch v.st.Lifecycle {
	case Running:
		v.st.Lifecycle = Paused
		return nil
	case Paused:
		return nil
	default:
		return fmt.Errorf("vm %s: cannot pause while %v", v.st.ID, v.st.Lifecycle)
	}
}

// Resume restarts a paused VM.
func (v *VM) Resume() error {
	switch v.st.Lifecycle {
	case Paused:
		v.st.Lifecycle = Running
		return nil
	case Running:
		return nil
	default:
		return fmt.Errorf("vm %s: cannot resume while %v", v.st.ID, v.st.Lifecycle)
	}
}

// BeginMigration pauses the VM for the given transfer time (use
// DefaultMigrationTime when in doubt).
func (v *VM) BeginMigration(transfer time.Duration) error {
	if transfer <= 0 {
		return fmt.Errorf("vm %s: migration transfer time must be positive", v.st.ID)
	}
	if v.st.Lifecycle != Running && v.st.Lifecycle != Paused {
		return fmt.Errorf("vm %s: cannot migrate while %v", v.st.ID, v.st.Lifecycle)
	}
	v.st.Lifecycle = Migrating
	v.st.Migrating = transfer
	return nil
}

// Advance moves the VM forward by dt with the given effective speed — the
// product of DVFS frequency scale and host availability (0 when the host is
// down). It returns the work completed this step (0 for services; service
// throughput is accounted by the server from utilization served).
func (v *VM) Advance(dt time.Duration, speed float64) float64 {
	if dt <= 0 {
		return 0
	}
	switch v.st.Lifecycle {
	case Migrating:
		v.st.Migrating -= dt
		if v.st.Migrating <= 0 {
			v.st.Migrating = 0
			v.st.Lifecycle = Running
		}
		return 0
	case Paused, Completed:
		return 0
	}
	if speed <= 0 {
		return 0
	}
	v.st.Elapsed += dt
	util := v.Utilization()
	done := util * speed * dt.Hours()
	if v.st.Profile.Service {
		return done
	}
	if remaining := v.st.Profile.WorkUnits - v.st.Progress; done >= remaining {
		done = remaining
		v.st.Progress = v.st.Profile.WorkUnits
		v.st.Lifecycle = Completed
		return done
	}
	v.st.Progress += done
	return done
}
