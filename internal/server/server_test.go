package server

import (
	"strings"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := New("node-1", DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newVM(t *testing.T, id string, k workload.Kind) *vm.VM {
	t.Helper()
	p, err := workload.ProfileFor(k)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(id, p)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero idle", func(s *Spec) { s.IdlePower = 0 }},
		{"peak below idle", func(s *Spec) { s.PeakPower = 50 }},
		{"no levels", func(s *Spec) { s.FreqLevels = nil }},
		{"descending levels", func(s *Spec) { s.FreqLevels = []float64{1.0, 0.5} }},
		{"level above one", func(s *Spec) { s.FreqLevels = []float64{0.5, 1.5} }},
		{"top level not one", func(s *Spec) { s.FreqLevels = []float64{0.5, 0.9} }},
		{"zero capacity", func(s *Spec) { s.CPUCapacity = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := DefaultSpec()
			s.FreqLevels = append([]float64(nil), DefaultSpec().FreqLevels...)
			tt.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
	if _, err := New("", DefaultSpec()); err == nil {
		t.Error("empty id accepted")
	}
}

func TestIdlePower(t *testing.T) {
	s := newServer(t)
	if got := s.Power(); got != DefaultSpec().IdlePower {
		t.Errorf("idle power = %v, want %v", got, DefaultSpec().IdlePower)
	}
}

func TestPowerGrowsWithLoad(t *testing.T) {
	s := newServer(t)
	idle := s.Power()
	if err := s.Attach(newVM(t, "v1", workload.SoftwareTesting)); err != nil {
		t.Fatal(err)
	}
	loaded := s.Power()
	if loaded <= idle {
		t.Errorf("loaded power %v not above idle %v", loaded, idle)
	}
	if loaded > DefaultSpec().PeakPower {
		t.Errorf("power %v exceeds peak %v", loaded, DefaultSpec().PeakPower)
	}
}

func TestDVFSReducesPowerAndWork(t *testing.T) {
	s := newServer(t)
	if err := s.Attach(newVM(t, "v1", workload.SoftwareTesting)); err != nil {
		t.Fatal(err)
	}
	pFull := s.Power()
	doneFull := s.Step(time.Minute)

	s2 := newServer(t)
	if err := s2.Attach(newVM(t, "v1", workload.SoftwareTesting)); err != nil {
		t.Fatal(err)
	}
	if err := s2.SetFrequencyIndex(0); err != nil {
		t.Fatal(err)
	}
	pCapped := s2.Power()
	doneCapped := s2.Step(time.Minute)

	if pCapped >= pFull {
		t.Errorf("capped power %v not below full power %v", pCapped, pFull)
	}
	if doneCapped >= doneFull {
		t.Errorf("capped work %v not below full work %v", doneCapped, doneFull)
	}
}

func TestFrequencyLadder(t *testing.T) {
	s := newServer(t)
	if s.Frequency() != 1.0 {
		t.Fatalf("initial frequency = %v, want 1.0", s.Frequency())
	}
	if s.StepUpFrequency() {
		t.Error("StepUp at top succeeded")
	}
	steps := 0
	for s.StepDownFrequency() {
		steps++
	}
	if steps != len(DefaultSpec().FreqLevels)-1 {
		t.Errorf("stepped down %d times, want %d", steps, len(DefaultSpec().FreqLevels)-1)
	}
	if s.Frequency() != DefaultSpec().FreqLevels[0] {
		t.Errorf("bottom frequency = %v, want %v", s.Frequency(), DefaultSpec().FreqLevels[0])
	}
	if !s.StepUpFrequency() {
		t.Error("StepUp from bottom failed")
	}
	if err := s.SetFrequencyIndex(99); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestCapacityEnforcement(t *testing.T) {
	s := newServer(t)
	// Software testing peaks at 0.95: two fit in the 2.0 capacity, a
	// third cannot.
	if err := s.Attach(newVM(t, "v1", workload.SoftwareTesting)); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(newVM(t, "v2", workload.SoftwareTesting)); err != nil {
		t.Fatal(err)
	}
	v3 := newVM(t, "v3", workload.SoftwareTesting)
	if s.CanHost(v3) {
		t.Error("CanHost accepted an overcommit")
	}
	if err := s.Attach(v3); err == nil {
		t.Error("Attach accepted an overcommit")
	}
	if s.CanHost(nil) {
		t.Error("CanHost(nil) = true")
	}
}

func TestAttachDetach(t *testing.T) {
	s := newServer(t)
	v := newVM(t, "v1", workload.WordCount)
	if err := s.Attach(v); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(v); err == nil || !strings.Contains(err.Error(), "already attached") {
		t.Errorf("duplicate attach error = %v", err)
	}
	if err := s.Attach(nil); err == nil {
		t.Error("nil attach accepted")
	}
	got, err := s.Detach("v1")
	if err != nil || got != v {
		t.Fatalf("Detach = (%v, %v), want (v, nil)", got, err)
	}
	if _, err := s.Detach("v1"); err == nil {
		t.Error("double detach accepted")
	}
	if len(s.VMs()) != 0 {
		t.Error("VMs remain after detach")
	}
}

func TestCompletedVMFreesCapacity(t *testing.T) {
	s := newServer(t)
	v := newVM(t, "v1", workload.SoftwareTesting)
	if err := s.Attach(v); err != nil {
		t.Fatal(err)
	}
	// Run the job to completion.
	for i := 0; i < 100000 && v.State() != vm.Completed; i++ {
		s.Step(time.Minute)
	}
	if v.State() != vm.Completed {
		t.Fatal("job never completed")
	}
	if !s.CanHost(newVM(t, "v2", workload.SoftwareTesting)) {
		t.Error("completed VM still holds capacity")
	}
}

func TestPowerOffPausesVMsAndAccruesDowntime(t *testing.T) {
	s := newServer(t)
	v := newVM(t, "v1", workload.KMeans)
	if err := s.Attach(v); err != nil {
		t.Fatal(err)
	}
	s.SetPowered(false)
	if s.Power() != 0 {
		t.Errorf("dark server draws %v", s.Power())
	}
	if v.State() != vm.Paused {
		t.Errorf("VM state after power-off = %v, want paused", v.State())
	}
	if done := s.Step(time.Minute); done != 0 {
		t.Errorf("dark server did %v work", done)
	}
	if s.Downtime() != time.Minute {
		t.Errorf("downtime = %v, want 1m", s.Downtime())
	}
	s.SetPowered(true)
	if v.State() != vm.Running {
		t.Errorf("VM state after power-on = %v, want running", v.State())
	}
	// Idempotent.
	s.SetPowered(true)
	if !s.Powered() {
		t.Error("SetPowered(true) twice broke state")
	}
}

func TestThroughputAccumulates(t *testing.T) {
	s := newServer(t)
	if err := s.Attach(newVM(t, "v1", workload.DataAnalytics)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		s.Step(time.Minute)
	}
	if s.Throughput() <= 0 {
		t.Error("no throughput accumulated")
	}
	if s.Downtime() != 0 {
		t.Errorf("downtime = %v after an hour powered, want 0", s.Downtime())
	}
	if got := s.Step(0); got != 0 {
		t.Error("zero-duration step did work")
	}
}

func TestActiveUtilizationClamped(t *testing.T) {
	spec := DefaultSpec()
	spec.CPUCapacity = 2.0
	s, err := New("big", spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []workload.Kind{workload.SoftwareTesting, workload.KMeans} {
		if err := s.Attach(newVM(t, string(rune('a'+i)), k)); err != nil {
			t.Fatal(err)
		}
	}
	if u := s.ActiveUtilization(); u > 2.0 {
		t.Errorf("utilization %v above capacity", u)
	}
}
