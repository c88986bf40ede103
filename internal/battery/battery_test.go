package battery

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/green-dc/baat/internal/units"
)

func newPack(t *testing.T, opts ...Option) *Pack {
	t.Helper()
	p, err := New(DefaultSpec(), opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestSpecValidate(t *testing.T) {
	base := DefaultSpec()
	if err := base.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero voltage", func(s *Spec) { s.NominalVoltage = 0 }},
		{"zero capacity", func(s *Spec) { s.NominalCapacity = 0 }},
		{"peukert below one", func(s *Spec) { s.PeukertExponent = 0.9 }},
		{"zero resistance", func(s *Spec) { s.InternalResistance = 0 }},
		{"efficiency above one", func(s *Spec) { s.CoulombicEfficiency = 1.2 }},
		{"efficiency zero", func(s *Spec) { s.CoulombicEfficiency = 0 }},
		{"negative self discharge", func(s *Spec) { s.SelfDischargeFraction = -0.1 }},
		{"cutoff above nominal", func(s *Spec) { s.CutoffVoltage = 13 }},
		{"zero charge current", func(s *Spec) { s.MaxChargeCurrent = 0 }},
		{"zero lifetime throughput", func(s *Spec) { s.LifetimeThroughput = 0 }},
		{"zero thermal capacity", func(s *Spec) { s.ThermalCapacity = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := base
			tt.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
			if _, err := New(s); err == nil {
				t.Error("New() = nil error, want error")
			}
		})
	}
}

func TestNewDefaults(t *testing.T) {
	p := newPack(t)
	if p.SoC() != 1 {
		t.Errorf("initial SoC = %v, want 1", p.SoC())
	}
	if p.Temperature() != 25 {
		t.Errorf("initial temperature = %v, want 25", p.Temperature())
	}
	if h := p.Health(); h != 1 {
		t.Errorf("initial health = %v, want 1", h)
	}
}

func TestOCVMonotoneInSoC(t *testing.T) {
	p := newPack(t)
	prev := units.Volt(0)
	for soc := 0.0; soc <= 1.0; soc += 0.05 {
		p.st.SoC = soc
		v := p.OpenCircuitVoltage()
		if v <= prev {
			t.Fatalf("OCV not increasing at SoC %.2f: %v <= %v", soc, v, prev)
		}
		prev = v
	}
	// A full 12V lead-acid battery rests around 12.7 V.
	p.st.SoC = 1
	if v := p.OpenCircuitVoltage(); v < 12.6 || v > 12.9 {
		t.Errorf("full OCV = %v, want ~12.7V", v)
	}
}

func TestTerminalVoltageDropsUnderLoad(t *testing.T) {
	p := newPack(t)
	rest := p.TerminalVoltage(0)
	loaded := p.TerminalVoltage(10)
	if loaded >= rest {
		t.Errorf("loaded voltage %v not below rest voltage %v", loaded, rest)
	}
	charging := p.TerminalVoltage(-5)
	if charging <= rest {
		t.Errorf("charging voltage %v not above rest voltage %v", charging, rest)
	}
}

func TestCurrentForPower(t *testing.T) {
	p := newPack(t)
	i, err := p.currentForPower(120)
	if err != nil {
		t.Fatalf("currentForPower: %v", err)
	}
	// Delivered power must match the request: (OCV − I·R)·I == 120.
	got := float64(p.TerminalVoltage(i)) * float64(i)
	if !units.NearlyEqual(got, 120, 1e-6) {
		t.Errorf("delivered power = %v, want 120", got)
	}
	if _, err := p.currentForPower(1e9); !errors.Is(err, errPowerExceedsLimit) {
		t.Errorf("huge power error = %v, want errPowerExceedsLimit", err)
	}
	if i, err := p.currentForPower(0); err != nil || i != 0 {
		t.Errorf("zero power => (%v, %v), want (0, nil)", i, err)
	}
}

func TestDischargeReducesSoC(t *testing.T) {
	p := newPack(t)
	res, err := p.Discharge(100, time.Hour, 25)
	if err != nil {
		t.Fatalf("Discharge: %v", err)
	}
	if res.CutOff {
		t.Fatal("unexpected cutoff")
	}
	if p.SoC() >= 1 {
		t.Errorf("SoC after discharge = %v, want < 1", p.SoC())
	}
	if res.Current <= 0 || res.Energy() <= 0 || res.Charge <= 0 {
		t.Errorf("discharge result not positive: %+v", res)
	}
	c := p.Counters()
	if c.AhOut != res.Charge {
		t.Errorf("AhOut = %v, want %v", c.AhOut, res.Charge)
	}
	if c.EquivalentFullCycles <= 0 {
		t.Errorf("cycles = %v, want > 0", c.EquivalentFullCycles)
	}
}

func TestDischargeErrors(t *testing.T) {
	p := newPack(t)
	if _, err := p.Discharge(-1, time.Minute, 25); err == nil {
		t.Error("negative power accepted")
	}
	if _, err := p.Discharge(10, 0, 25); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := p.Charge(-1, time.Minute, 25); err == nil {
		t.Error("negative charge power accepted")
	}
	if _, err := p.Charge(10, -time.Minute, 25); err == nil {
		t.Error("negative charge duration accepted")
	}
}

func TestDischargeUntilCutoff(t *testing.T) {
	p := newPack(t)
	var tripped bool
	for i := 0; i < 48; i++ {
		res, err := p.Discharge(200, 30*time.Minute, 25)
		if err != nil {
			t.Fatalf("Discharge: %v", err)
		}
		if res.CutOff {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("pack never tripped cutoff despite draining load")
	}
	if !p.CutOff() {
		t.Error("CutOff() = false after trip")
	}
	if p.SoC() > 0.35 {
		t.Errorf("SoC at cutoff = %v, want low", p.SoC())
	}
}

func TestChargeRestoresSoC(t *testing.T) {
	p := newPack(t, WithInitialSoC(0.3))
	for i := 0; i < 600; i++ {
		if _, err := p.Charge(120, time.Minute, 25); err != nil {
			t.Fatalf("Charge: %v", err)
		}
	}
	if p.SoC() < 0.98 {
		t.Errorf("SoC after long charge = %v, want ~1", p.SoC())
	}
	// Charging at full should be a no-op.
	before := p.Counters().AhIn
	if _, err := p.Charge(120, time.Minute, 25); err != nil {
		t.Fatalf("Charge at full: %v", err)
	}
	if p.Counters().AhIn != before {
		t.Error("charging at full SoC accepted charge")
	}
}

func TestChargeTaperNearFull(t *testing.T) {
	p := newPack(t, WithInitialSoC(0.95))
	res, err := p.Charge(500, time.Minute, 25)
	if err != nil {
		t.Fatalf("Charge: %v", err)
	}
	// Acceptance current should be tapered well below MaxChargeCurrent.
	if i := -float64(res.Current); i > float64(DefaultSpec().MaxChargeCurrent)*0.6 {
		t.Errorf("taper ineffective: current %.2fA", i)
	}
}

func TestPeukertEffect(t *testing.T) {
	p := newPack(t)
	refCap := p.capacityAt(1) // below reference rate
	highCap := p.capacityAt(20)
	if highCap >= refCap {
		t.Errorf("Peukert: capacity at 20A (%v) not below capacity at 1A (%v)", highCap, refCap)
	}
	// The adjustment must match the power law.
	k := p.spec.PeukertExponent
	ref := float64(p.referenceCurrent())
	want := float64(refCap) * math.Pow(ref/20, k-1)
	if !units.NearlyEqual(float64(highCap), want, 1e-9) {
		t.Errorf("capacityAt(20) = %v, want %v", highCap, want)
	}
}

func TestDegradationEffects(t *testing.T) {
	fresh := newPack(t)
	aged := newPack(t)
	aged.ApplyDegradation(Degradation{CapacityFade: 0.2, ResistanceGrowth: 0.5, EfficiencyLoss: 0.05})

	if got, want := aged.EffectiveCapacity(), units.AmpereHour(28); !units.NearlyEqual(float64(got), float64(want), 1e-9) {
		t.Errorf("aged capacity = %v, want %v", got, want)
	}
	if aged.Health() >= fresh.Health() {
		t.Error("aged health not below fresh health")
	}
	// Same load, aged pack sags further.
	vFresh := fresh.TerminalVoltage(10)
	vAged := aged.TerminalVoltage(10)
	if vAged >= vFresh {
		t.Errorf("aged terminal voltage %v not below fresh %v", vAged, vFresh)
	}
	if aged.MaxDischargePower() >= fresh.MaxDischargePower() {
		t.Error("aged max discharge power not reduced")
	}
}

func TestApplyDegradationClamps(t *testing.T) {
	p := newPack(t)
	p.ApplyDegradation(Degradation{CapacityFade: 2, ResistanceGrowth: -1, EfficiencyLoss: 5})
	d := p.Degradation()
	if d.CapacityFade != 1 {
		t.Errorf("CapacityFade = %v, want clamped to 1", d.CapacityFade)
	}
	if d.ResistanceGrowth != 0 {
		t.Errorf("ResistanceGrowth = %v, want clamped to 0", d.ResistanceGrowth)
	}
	if d.EfficiencyLoss > p.spec.CoulombicEfficiency {
		t.Errorf("EfficiencyLoss = %v not clamped", d.EfficiencyLoss)
	}
}

func TestDegradationHealth(t *testing.T) {
	tests := []struct {
		fade, want float64
	}{
		{0, 1},
		{0.2, 0.8},
		{1, 0},
		{1.5, 0},
	}
	for _, tt := range tests {
		d := Degradation{CapacityFade: tt.fade}
		if got := d.Health(); !units.NearlyEqual(got, tt.want, 1e-12) {
			t.Errorf("Health(fade=%v) = %v, want %v", tt.fade, got, tt.want)
		}
	}
}

func TestSelfDischargeAtRest(t *testing.T) {
	p := newPack(t)
	p.Rest(30*24*time.Hour, 25) // a month on the shelf
	if p.SoC() >= 1 {
		t.Error("no self-discharge over a month at rest")
	}
	if p.SoC() < 0.85 {
		t.Errorf("self-discharge too aggressive: SoC %v after a month", p.SoC())
	}
}

func TestThermalModel(t *testing.T) {
	p := newPack(t)
	// Heavy discharge warms the pack above ambient.
	for i := 0; i < 60; i++ {
		if _, err := p.Discharge(250, time.Minute, 25); err != nil {
			t.Fatalf("Discharge: %v", err)
		}
	}
	warm := p.Temperature()
	if warm <= 25 {
		t.Errorf("temperature after heavy discharge = %v, want > 25°C", warm)
	}
	// Resting relaxes back toward ambient.
	p.Rest(6*time.Hour, 25)
	if p.Temperature() >= warm {
		t.Error("temperature did not relax at rest")
	}
}

func TestManufacturingVariation(t *testing.T) {
	small := newPack(t, WithManufacturingVariation(0.9, 1.2))
	nominal := newPack(t)
	if small.EffectiveCapacity() >= nominal.EffectiveCapacity() {
		t.Error("capacity scale not applied")
	}
	if small.TerminalVoltage(10) >= nominal.TerminalVoltage(10) {
		t.Error("resistance scale not applied")
	}
	// Non-positive scales are ignored rather than corrupting the pack.
	zero := newPack(t, WithManufacturingVariation(0, -1))
	if zero.EffectiveCapacity() != nominal.EffectiveCapacity() {
		t.Error("zero capacity scale should be ignored")
	}
}

func TestSoCBoundsProperty(t *testing.T) {
	// Whatever sequence of operations runs, SoC stays in [0, 1].
	f := func(ops []uint8) bool {
		p, err := New(DefaultSpec(), WithInitialSoC(0.5))
		if err != nil {
			return false
		}
		for _, op := range ops {
			pw := units.Watt(float64(op%200) + 1)
			switch op % 3 {
			case 0:
				_, err = p.Discharge(pw, time.Minute, 25)
			case 1:
				_, err = p.Charge(pw, time.Minute, 25)
			default:
				p.Rest(time.Minute, 25)
			}
			if err != nil {
				return false
			}
			if p.SoC() < 0 || p.SoC() > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCountersMonotoneProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		p, err := New(DefaultSpec(), WithInitialSoC(0.6))
		if err != nil {
			return false
		}
		prev := p.Counters()
		for _, op := range ops {
			if op%2 == 0 {
				_, err = p.Discharge(units.Watt(op)+1, time.Minute, 25)
			} else {
				_, err = p.Charge(units.Watt(op)+1, time.Minute, 25)
			}
			if err != nil {
				return false
			}
			c := p.Counters()
			if c.AhOut < prev.AhOut || c.AhIn < prev.AhIn ||
				c.WhOut < prev.WhOut || c.WhIn < prev.WhIn ||
				c.OperatingTime < prev.OperatingTime {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStoredEnergy(t *testing.T) {
	p := newPack(t)
	full := p.StoredEnergy()
	// 35 Ah × 12 V = 420 Wh nameplate.
	if !units.NearlyEqual(float64(full), 420, 1e-9) {
		t.Errorf("full stored energy = %v, want 420Wh", full)
	}
	p2 := newPack(t, WithInitialSoC(0.5))
	if got := p2.StoredEnergy(); !units.NearlyEqual(float64(got), 210, 1e-9) {
		t.Errorf("half stored energy = %v, want 210Wh", got)
	}
}

func TestMaxDischargePowerAtCutoff(t *testing.T) {
	p := newPack(t, WithInitialSoC(0.01))
	// Nearly empty: OCV is close to the floor so max power collapses.
	if got := p.MaxDischargePower(); got > 500 {
		t.Errorf("max discharge power near empty = %v, suspiciously high", got)
	}
}
