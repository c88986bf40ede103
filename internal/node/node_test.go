package node

import (
	"math"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/powernet"
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

func TestSolarCoversLoad(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.WordCount)
	demand := n.Demand()
	res, err := n.Step(time.Minute, demand*2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Down {
		t.Fatal("node went dark with abundant solar")
	}
	if res.Source != powernet.SourceSolar {
		t.Errorf("source = %v, want solar", res.Source)
	}
	if res.BatteryPower > 0 {
		t.Errorf("battery discharged (%v) despite solar surplus", res.BatteryPower)
	}
	// Only the needed solar is consumed, not the whole grant.
	if res.SolarUsed >= demand*2 {
		t.Errorf("SolarUsed = %v, want < grant %v", res.SolarUsed, demand*2)
	}
	if res.WorkDone <= 0 {
		t.Error("no work done")
	}
}

func TestBatteryBridgesDeficit(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.SoftwareTesting)
	res, err := n.Step(time.Minute, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Down {
		t.Fatal("node went dark with a healthy battery")
	}
	if res.Source != powernet.SourceBattery {
		t.Errorf("source = %v, want battery", res.Source)
	}
	if res.BatteryPower <= 0 {
		t.Errorf("battery power = %v, want positive discharge", res.BatteryPower)
	}
	if n.Battery().SoC() >= 1 {
		t.Error("SoC did not drop")
	}
}

func TestMixedSolarAndBattery(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.SoftwareTesting)
	demand := n.Demand()
	res, err := n.Step(time.Minute, demand/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != powernet.SourceMixed {
		t.Errorf("source = %v, want mixed", res.Source)
	}
	if res.BatteryPower <= 0 {
		t.Error("battery did not bridge the partial deficit")
	}
}

func TestNodeGoesDarkWhenBatteryEmpty(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.SoftwareTesting)
	var wentDark bool
	for i := 0; i < 10*60; i++ { // up to 10 hours on battery alone
		res, err := n.Step(time.Minute, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Down {
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
		if _, err := n.Step(time.Minute, 0, 0); err != nil {
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
		res, err := n.Step(time.Minute, 400, 200)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Down {
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
		res, err := n.Step(time.Minute, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Down {
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
		if _, err := n.Step(time.Minute, 0, 0); err != nil {
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
		if _, err := n.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.ChargeRequest(); got <= 0 {
		t.Errorf("ChargeRequest after drain = %v, want > 0", got)
	}
}

func TestStepValidation(t *testing.T) {
	n := newNode(t)
	if _, err := n.Step(0, 0, 0); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := n.Step(time.Minute, -1, 0); err == nil {
		t.Error("negative load solar accepted")
	}
	if _, err := n.Step(time.Minute, 0, -1); err == nil {
		t.Error("negative charge solar accepted")
	}
}

func TestMetricsAccumulate(t *testing.T) {
	n := newNode(t)
	attachVM(t, n, "v1", workload.SoftwareTesting)
	for i := 0; i < 240; i++ {
		if _, err := n.Step(time.Minute, 0, 0); err != nil {
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
		if _, err := hard.Step(time.Minute, 0, 0); err != nil {
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
	res, err := n.Step(time.Minute, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Demand != 0 || res.Down {
		t.Errorf("empty node stepped with demand %v, down %v", res.Demand, res.Down)
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
