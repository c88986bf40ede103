package node

import (
	"math"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/units"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

func newNode(t *testing.T, mutate ...func(*Config)) *Node {
	t.Helper()
	cfg := DefaultConfig()
	for _, m := range mutate {
		m(&cfg)
	}
	n, err := New("n1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func attachVM(t *testing.T, n *Node, id string, k workload.Kind) *vm.VM {
	t.Helper()
	p, err := workload.ProfileFor(k)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(id, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Server().Attach(v); err != nil {
		t.Fatal(err)
	}
	return v
}

// stepDelta is what one Step booked in the node's own accounting.
type stepDelta struct {
	down  time.Duration    // server downtime
	solar units.WattHour   // bus solar consumed, load and charging
	work  float64          // compute work completed
	ahOut units.AmpereHour // charge the pack discharged
}

// stepOnce runs one Step and diffs the node's accounting around it.
func stepOnce(t *testing.T, n *Node, dt time.Duration, load, charge units.Watt) stepDelta {
	t.Helper()
	before, ahOut := n.Stats(), n.Battery().Counters().AhOut
	if err := n.Step(dt, load, charge); err != nil {
		t.Fatal(err)
	}
	after := n.Stats()
	return stepDelta{
		down:  after.Downtime - before.Downtime,
		solar: after.SolarEnergy - before.SolarEnergy,
		work:  after.Throughput - before.Throughput,
		ahOut: n.Battery().Counters().AhOut - ahOut,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad battery", func(c *Config) { c.BatterySpec.NominalVoltage = 0 }},
		{"bad server", func(c *Config) { c.ServerSpec.IdlePower = 0 }},
		{"bad aging", func(c *Config) { c.AgingConfig.AccelFactor = 0 }},
		{"bad losses", func(c *Config) { c.Losses.InverterEfficiency = 2 }},
		{"bad floor", func(c *Config) { c.SoCFloor = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
			if _, err := New("x", cfg); err == nil {
				t.Error("New accepted invalid config")
			}
		})
	}
	if _, err := New("", DefaultConfig()); err == nil {
		t.Error("empty id accepted")
	}
}

func TestLossesValidate(t *testing.T) {
	if err := DefaultLosses().Validate(); err != nil {
		t.Fatalf("default losses invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Losses)
	}{
		{"zero inverter", func(l *Losses) { l.InverterEfficiency = 0 }},
		{"charger above one", func(l *Losses) { l.ChargerEfficiency = 1.1 }},
		{"negative solar", func(l *Losses) { l.SolarDirectEfficiency = -0.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			l := DefaultLosses()
			tt.mutate(&l)
			if err := l.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestSolarCoversLoad(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.WordCount)
	demand := n.Demand()
	d := stepOnce(t, n, time.Minute, demand*2, 0)
	if d.down != 0 {
		t.Fatal("node went dark with abundant solar")
	}
	if d.ahOut != 0 {
		t.Errorf("battery discharged %v despite solar surplus", d.ahOut)
	}
	// Only the needed solar is consumed, not the whole grant.
	if grant := units.EnergyOver(demand*2, time.Minute); d.solar <= 0 || d.solar >= grant {
		t.Errorf("solar energy = %v, want in (0, grant %v)", d.solar, grant)
	}
	if d.work <= 0 {
		t.Error("no work done")
	}
}

func TestBatteryBridgesDeficit(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.SoftwareTesting)
	d := stepOnce(t, n, time.Minute, 0, 0)
	if d.down != 0 {
		t.Fatal("node went dark with a healthy battery")
	}
	if d.ahOut <= 0 || d.solar != 0 {
		t.Errorf("discharged %v with solar %v, want a battery-only tick", d.ahOut, d.solar)
	}
	if n.Battery().SoC() >= 1 {
		t.Error("SoC did not drop")
	}
}

func TestMixedSolarAndBattery(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.SoftwareTesting)
	demand := n.Demand()
	d := stepOnce(t, n, time.Minute, demand/2, 0)
	if d.ahOut <= 0 || d.solar <= 0 {
		t.Errorf("discharged %v with solar %v, want both", d.ahOut, d.solar)
	}
}

func TestNodeGoesDarkWhenBatteryEmpty(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.SoftwareTesting)
	var wentDark bool
	for i := 0; i < 10*60; i++ { // up to 10 hours on battery alone
		if stepOnce(t, n, time.Minute, 0, 0).down > 0 {
			wentDark = true
			break
		}
	}
	if !wentDark {
		t.Fatal("node never went dark on battery alone")
	}
	if n.Server().Powered() {
		t.Error("server still powered after dark tick")
	}
	if n.Stats().Downtime <= 0 {
		t.Error("downtime not recorded")
	}
}

func TestDarkNodeChargesAndRecovers(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.SoftwareTesting)
	// Drain until dark.
	for !n.Stats().isDown() {
		if err := n.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
		if n.Clock() > 12*time.Hour {
			t.Fatal("never went dark")
		}
	}
	socDark := n.Battery().SoC()
	// Generous solar charges the battery and revives the server.
	var recovered bool
	for i := 0; i < 6*60; i++ {
		if stepOnce(t, n, time.Minute, 400, 200).down == 0 {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("node never recovered with abundant solar")
	}
	if n.Battery().SoC() < socDark {
		t.Error("battery did not charge while dark")
	}
}

// isDown is a test helper on Stats.
func (s Stats) isDown() bool { return s.Downtime > 0 }

func TestUtilityBackupPreventsDarkness(t *testing.T) {
	n := newNode(t, func(c *Config) { c.UtilityBackup = true })
	attachVM(t, n, "v1", workload.SoftwareTesting)
	// Exhaust the battery; with utility backup the node must stay up.
	for i := 0; i < 12*60; i++ {
		if stepOnce(t, n, time.Minute, 0, 0).down > 0 {
			t.Fatal("node went dark despite utility backup")
		}
	}
	if n.Stats().UtilityEnergy <= 0 {
		t.Error("no utility energy recorded")
	}
}

func TestSoCFloorStopsDischarge(t *testing.T) {
	n := newNode(t, func(c *Config) { c.SoCFloor = 0.6 })
	attachVM(t, n, "v1", workload.SoftwareTesting)
	for i := 0; i < 8*60; i++ {
		if err := n.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The floor blocks discharge below 0.6 (small overshoot within the
	// tick that crosses the floor is possible).
	if soc := n.Battery().SoC(); soc < 0.55 {
		t.Errorf("SoC = %v, floor 0.6 not enforced", soc)
	}
}

func TestSetSoCFloor(t *testing.T) {
	n := newNode(t)
	if err := n.SetSoCFloor(0.5); err != nil {
		t.Fatal(err)
	}
	if n.SoCFloor() != 0.5 {
		t.Errorf("SoCFloor = %v, want 0.5", n.SoCFloor())
	}
	for _, bad := range []float64{-0.1, 1.0, 2.0, math.NaN()} {
		if err := n.SetSoCFloor(bad); err == nil {
			t.Errorf("floor %v accepted", bad)
		}
	}
}

func TestChargeRequest(t *testing.T) {
	n := newNode(t)
	// Full battery requests nothing.
	if got := n.ChargeRequest(); got != 0 {
		t.Errorf("ChargeRequest at full = %v, want 0", got)
	}
	// Drain, then the request becomes positive.
	attachVM(t, n, "v1", workload.SoftwareTesting)
	for i := 0; i < 120; i++ {
		if err := n.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.ChargeRequest(); got <= 0 {
		t.Errorf("ChargeRequest after drain = %v, want > 0", got)
	}
}

func TestStepValidation(t *testing.T) {
	n := newNode(t)
	if err := n.Step(0, 0, 0); err == nil {
		t.Error("zero duration accepted")
	}
	if err := n.Step(time.Minute, -1, 0); err == nil {
		t.Error("negative load solar accepted")
	}
	if err := n.Step(time.Minute, 0, -1); err == nil {
		t.Error("negative charge solar accepted")
	}
}

func TestMetricsAccumulate(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.SoftwareTesting)
	for i := 0; i < 240; i++ {
		if err := n.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	m := n.Metrics()
	if m.NAT <= 0 {
		t.Error("NAT did not accumulate under discharge")
	}
	if m.DR <= 0 {
		t.Error("DR not recorded")
	}
}

func TestAgingFeedsBackToPack(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.SoftwareTesting)
	// Several brutal deep-discharge days at accelerated aging.
	cfg := DefaultConfig()
	cfg.AgingConfig.AccelFactor = 200
	hard, err := New("hard", cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ProfileFor(workload.SoftwareTesting)
	v, _ := vm.New("v", p)
	if err := hard.Server().Attach(v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6*60; i++ {
		if err := hard.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if hard.Battery().Health() >= 1 {
		t.Error("degradation not applied to pack")
	}
	if hard.Stats().Health >= 1 {
		t.Error("stats health not reflecting degradation")
	}
}

func TestIdleNodeScheduledOff(t *testing.T) {
	// A node hosting no work draws nothing and is scheduled off: its
	// server stays unpowered without accruing downtime.
	n := newNode(t)
	if d := n.Demand(); d != 0 {
		t.Errorf("empty node demands %v", d)
	}
	if d := stepOnce(t, n, time.Minute, 1000, 0); d.down != 0 || d.work != 0 {
		t.Errorf("empty node stepped with downtime %v, work %v", d.down, d.work)
	}
	if n.Server().Powered() {
		t.Error("idle server left powered")
	}
	if n.Server().Downtime() != 0 {
		t.Errorf("idle server accrued downtime %v", n.Server().Downtime())
	}
}

func TestDemandRestoresPoweredState(t *testing.T) {
	n := newNode(t)
	n.Server().SetPowered(false)
	_ = n.Demand()
	if n.Server().Powered() {
		t.Error("Demand() flipped a dark server on")
	}
}
