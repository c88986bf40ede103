// Package server models the compute nodes of the prototype (three IBM X
// series 330 and three HP ProLiant machines, DSN'15 Fig 11) at the level
// BAAT observes and actuates them: an IPDU power reading, a DVFS ladder the
// controller can step through, and a set of hosted VMs.
package server

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/units"
	"github.com/green-dc/baat/internal/vm"
)

// Spec describes a server model's power behaviour.
type Spec struct {
	// IdlePower is the draw at zero utilization, full frequency.
	IdlePower units.Watt
	// PeakPower is the draw at full utilization, full frequency.
	PeakPower units.Watt
	// FreqLevels is the DVFS ladder as frequency fractions of nominal,
	// ascending, ending at 1.0.
	FreqLevels []float64
	// CPUCapacity is the total utilization the server can host (1.0 = one
	// fully loaded CPU's worth).
	CPUCapacity float64
}

// DefaultSpec models the prototype's mid-2000s rack servers: ~85 W idle,
// ~160 W peak, five DVFS steps.
func DefaultSpec() Spec {
	return Spec{
		IdlePower:   85,
		PeakPower:   160,
		FreqLevels:  []float64{0.6, 0.7, 0.8, 0.9, 1.0},
		CPUCapacity: 2.0,
	}
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.IdlePower <= 0 || s.PeakPower <= s.IdlePower {
		return fmt.Errorf("server: need 0 < idle (%v) < peak (%v)", s.IdlePower, s.PeakPower)
	}
	if len(s.FreqLevels) == 0 {
		return fmt.Errorf("server: need at least one DVFS level")
	}
	prev := 0.0
	for i, f := range s.FreqLevels {
		if f <= prev || f > 1 {
			return fmt.Errorf("server: DVFS levels must be ascending in (0, 1], level %d = %v", i, f)
		}
		prev = f
	}
	if s.FreqLevels[len(s.FreqLevels)-1] != 1 {
		return fmt.Errorf("server: top DVFS level must be 1.0, got %v", s.FreqLevels[len(s.FreqLevels)-1])
	}
	if s.CPUCapacity <= 0 {
		return fmt.Errorf("server: CPU capacity must be positive, got %v", s.CPUCapacity)
	}
	return nil
}

// Server is one compute node. Not safe for concurrent use.
type Server struct {
	id   string
	spec Spec
	// st is the server's own state in its checkpoint shape: Snapshot
	// copies it out, and Restore validates a snapshot and assigns it.
	st  own
	vms []*vm.VM
	// reserved is the peak utilization held by the hosted VMs that have
	// not completed, and active is how many of them there are. Whatever
	// changes the VM list, or completes a VM on it, must call
	// refreshReserved.
	reserved float64
	active   int
	// mark is the change flag TrackChanges installed, or nil.
	mark *bool
}

// New constructs a powered-on server at full frequency.
func New(id string, spec Spec) (*Server, error) {
	s := new(Server)
	if err := NewInto(s, id, spec); err != nil {
		return nil, err
	}
	return s, nil
}

// NewInto initializes a powered-on server at full frequency in place,
// overwriting *s. It exists so a node can hold its server by value
// instead of behind its own pointer; the resulting value is identical to
// one built by New.
func NewInto(s *Server, id string, spec Spec) error {
	if id == "" {
		return fmt.Errorf("server: id must not be empty")
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	*s = Server{
		id:   id,
		spec: spec,
		st:   own{FreqIdx: len(spec.FreqLevels) - 1, Powered: true},
	}
	return nil
}

// ID returns the server identifier.
func (s *Server) ID() string { return s.id }

// Spec returns the server's power specification.
func (s *Server) Spec() Spec { return s.spec }

// Powered reports whether the node currently has power.
func (s *Server) Powered() bool { return s.st.Powered }

// Frequency returns the current DVFS frequency fraction.
func (s *Server) Frequency() float64 { return s.spec.FreqLevels[s.st.FreqIdx] }

// FrequencyIndex returns the current DVFS ladder position.
func (s *Server) FrequencyIndex() int { return s.st.FreqIdx }

// TrackChanges has the server set *flag whenever a call may change what
// it draws (ActiveVMCount and Power) between its own steps: Attach,
// Detach, StepDownFrequency and StepUpFrequency, each only when it moves
// something. Nothing clears the flag; its owner does. A nil flag stops the
// tracking. The simulator reads its demand column through these flags, so
// a new call that changes the VM list, a VM's lifecycle or the frequency
// outside Step must set the flag too.
func (s *Server) TrackChanges(flag *bool) { s.mark = flag }

// changed sets the tracked change flag, if any.
func (s *Server) changed() {
	if s.mark != nil {
		*s.mark = true
	}
}

// StepDownFrequency lowers frequency one notch (the software driver of
// §IV-A: "we can dynamically set the frequency of processors"); it reports
// whether a lower level existed.
func (s *Server) StepDownFrequency() bool {
	if s.st.FreqIdx == 0 {
		return false
	}
	s.st.FreqIdx--
	s.changed()
	return true
}

// StepUpFrequency raises frequency one notch; it reports whether a higher
// level existed.
func (s *Server) StepUpFrequency() bool {
	if s.st.FreqIdx == len(s.spec.FreqLevels)-1 {
		return false
	}
	s.st.FreqIdx++
	s.changed()
	return true
}

// VMs returns the hosted VMs. The returned slice is a copy; the VMs are
// shared.
func (s *Server) VMs() []*vm.VM {
	return append([]*vm.VM(nil), s.vms...)
}

// VMCount returns the number of hosted VMs, completed ones included.
func (s *Server) VMCount() int { return len(s.vms) }

// VMAt returns the i-th hosted VM, in attach order, without copying the
// list the way VMs does.
func (s *Server) VMAt(i int) *vm.VM { return s.vms[i] }

// ActiveVMCount returns the number of hosted VMs that still need the server
// (anything not completed). A server with none can be scheduled off to save
// its idle power.
func (s *Server) ActiveVMCount() int { return s.active }

// ActiveUtilization sums the utilization demanded by hosted VMs, clamped to
// capacity.
func (s *Server) ActiveUtilization() float64 {
	var u float64
	for _, v := range s.vms {
		u += v.Utilization()
	}
	return math.Min(u, s.spec.CPUCapacity)
}

// ReservedUtilization is the placement-time view: the peak demands of the
// hosted VMs that have not completed, so a momentarily idle VM still holds
// its slot.
func (s *Server) ReservedUtilization() float64 { return s.reserved }

// refreshReserved recomputes the reservation and the active count from
// scratch, in VM-list order. The reservation is never updated
// incrementally: a running add and subtract would round differently from
// the sum and could flip a placement that sits on Fits' tolerance edge.
func (s *Server) refreshReserved() {
	var u float64
	var n int
	for _, v := range s.vms {
		if v.State() != vm.Completed {
			u += v.Profile().PeakUtilization
			n++
		}
	}
	s.reserved, s.active = u, n
}

// Fits reports whether a VM of the given peak demand fits next to the
// reserved utilization on a server of the given capacity. It is the one
// statement of the rule CanHost applies, for callers holding the three
// numbers in columns.
func Fits(reserved, peak, capacity float64) bool {
	return reserved+peak <= capacity+1e-9
}

// CanHost reports whether the server has CPU headroom for the VM at its
// peak demand — the resource constraint that can block migration (§IV-C).
func (s *Server) CanHost(v *vm.VM) bool {
	if v == nil {
		return false
	}
	return Fits(s.reserved, v.Profile().PeakUtilization, s.spec.CPUCapacity)
}

// Attach places a VM on the server.
func (s *Server) Attach(v *vm.VM) error {
	if v == nil {
		return fmt.Errorf("server %s: cannot attach nil VM", s.id)
	}
	for _, cur := range s.vms {
		if cur.ID() == v.ID() {
			return fmt.Errorf("server %s: VM %s already attached", s.id, v.ID())
		}
	}
	if !s.CanHost(v) {
		return fmt.Errorf("server %s: no capacity for VM %s (reserved %.2f + %.2f > %.2f)",
			s.id, v.ID(), s.reserved, v.Profile().PeakUtilization, s.spec.CPUCapacity)
	}
	s.vms = append(s.vms, v)
	s.refreshReserved()
	s.changed()
	return nil
}

// DetachCompleted removes every completed VM in place, preserving the
// relative order of the remaining VMs, and returns how many were removed.
// It is the allocation-free bulk form of Detach for the simulator's
// control-period reap pass. It sets no change flag: a completed VM adds
// +0 to the utilization Power sums and does not count as active, so
// dropping it leaves Power as it was.
func (s *Server) DetachCompleted() int {
	kept := s.vms[:0]
	for _, v := range s.vms {
		if v.State() != vm.Completed {
			kept = append(kept, v)
		}
	}
	removed := len(s.vms) - len(kept)
	for i := len(kept); i < len(s.vms); i++ {
		s.vms[i] = nil
	}
	s.vms = kept
	s.refreshReserved()
	return removed
}

// Detach removes a VM from the server.
func (s *Server) Detach(id string) (*vm.VM, error) {
	for i, cur := range s.vms {
		if cur.ID() == id {
			s.vms = append(s.vms[:i], s.vms[i+1:]...)
			s.refreshReserved()
			s.changed()
			return cur, nil
		}
	}
	return nil, fmt.Errorf("server %s: VM %s not attached", s.id, id)
}

// Power returns the present electrical draw as the IPDU would report it:
// idle plus a dynamic part scaling with utilization and the cube of
// frequency (voltage tracks frequency, P ∝ f·V²).
func (s *Server) Power() units.Watt {
	if !s.st.Powered {
		return 0
	}
	f := s.Frequency()
	dyn := float64(s.spec.PeakPower-s.spec.IdlePower) * s.ActiveUtilization() * f * f * f
	return s.spec.IdlePower + units.Watt(dyn)
}

// SetPowered powers the node on or off. Powering off checkpoints (pauses)
// all hosted VMs, as the prototype does when solar power disappears (§V-B);
// powering on resumes them. Migrating and completed VMs are left alone; the
// state is checked first because Pause and Resume build an error for them,
// and the engine's demand probe toggles dark servers every tick.
func (s *Server) SetPowered(on bool) {
	if s.st.Powered == on {
		return
	}
	s.st.Powered = on
	for _, v := range s.vms {
		switch st := v.State(); {
		case on && st == vm.Paused:
			_ = v.Resume() // cannot fail from Paused
		case !on && st == vm.Running:
			_ = v.Pause() // cannot fail from Running
		}
	}
}

// Step advances hosted VMs by dt. Work proceeds at the DVFS frequency when
// powered; a dark node accrues downtime and zero throughput (the e-Buff
// failure mode of §VI-F). It returns the work units completed this step.
func (s *Server) Step(dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	if !s.st.Powered {
		// At speed 0 no VM completes, so the reservation holds.
		s.st.Downtime += dt
		for _, v := range s.vms {
			v.Advance(dt, 0)
		}
		return 0
	}
	speed := s.Frequency()
	var done float64
	completed := false
	for _, v := range s.vms {
		wasDone := v.State() == vm.Completed
		done += v.Advance(dt, speed)
		completed = completed || !wasDone && v.State() == vm.Completed
	}
	if completed {
		s.refreshReserved()
	}
	s.st.Throughput += done
	return done
}

// Throughput returns accumulated work units — the compute-throughput metric
// of Fig 20.
func (s *Server) Throughput() float64 { return s.st.Throughput }

// Downtime returns accumulated unpowered time.
func (s *Server) Downtime() time.Duration { return s.st.Downtime }
