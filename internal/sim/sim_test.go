package sim

import (
	"math"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/solar"
)

func newSim(t *testing.T, policy string, mutate ...func(*Config)) *Simulator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Policy = core.PolicySpec{Name: policy}
	for _, m := range mutate {
		m(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no nodes", func(c *Config) { c.Nodes = 0 }},
		{"bad node", func(c *Config) { c.Node.SoCFloor = 1 }},
		{"bad solar", func(c *Config) { c.Solar.Scale = 0 }},
		{"zero tick", func(c *Config) { c.Tick = 0 }},
		{"control below tick", func(c *Config) { c.ControlPeriod = time.Second; c.Tick = time.Minute }},
		{"window inverted", func(c *Config) { c.WindowEnd = c.WindowStart - time.Hour }},
		{"negative jobs", func(c *Config) { c.JobsPerDay = -1 }},
		{"huge sigma", func(c *Config) { c.ManufacturingSigma = 0.9 }},
		// NaN must not reach the config hash or a run.
		{"NaN sigma", func(c *Config) { c.ManufacturingSigma = math.NaN() }},
		{"NaN fractions", func(c *Config) {
			c.BatteryFleet = []BatteryShare{{Model: battery.KindLeadAcid, Fraction: math.NaN()}, {Model: battery.KindLFP, Fraction: math.NaN()}}
		}},
		{"one NaN fraction", func(c *Config) {
			c.BatteryFleet = []BatteryShare{{Model: battery.KindLeadAcid, Fraction: 0.5}, {Model: battery.KindLFP, Fraction: math.NaN()}}
		}},
		{"NaN accel", func(c *Config) { c.Node.AgingConfig.AccelFactor = math.NaN() }},
		{"infinite accel", func(c *Config) { c.Node.AgingConfig.AccelFactor = math.Inf(1) }},
		{"NaN solar scale", func(c *Config) { c.Solar.Scale = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultConfig()
	cfg.Policy = core.PolicySpec{Name: "no-such-policy"}
	if _, err := New(cfg); err == nil {
		t.Error("unknown policy accepted")
	}
	cfg = DefaultConfig()
	cfg.Policy = core.PolicySpec{Name: "baat", Options: map[string]string{"floor": "1.5"}}
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range policy option accepted")
	}
}

func TestRunDayProducesThroughput(t *testing.T) {
	s := newSim(t, "ebuff")
	ds, err := s.RunDay(solar.Sunny)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Throughput <= 0 {
		t.Error("sunny day produced no throughput")
	}
	if ds.SolarEnergy <= 0 {
		t.Error("no solar energy consumed")
	}
	if ds.Day != 1 {
		t.Errorf("day = %d, want 1", ds.Day)
	}
	if s.Clock() != 24*time.Hour {
		t.Errorf("clock = %v, want 24h", s.Clock())
	}
}

func TestWorseWeatherLessThroughputMoreBatteryUse(t *testing.T) {
	sunny := newSim(t, "ebuff")
	rainy := newSim(t, "ebuff")
	dsSunny, err := sunny.RunDay(solar.Sunny)
	if err != nil {
		t.Fatal(err)
	}
	dsRainy, err := rainy.RunDay(solar.Rainy)
	if err != nil {
		t.Fatal(err)
	}
	if dsRainy.SolarEnergy >= dsSunny.SolarEnergy {
		t.Errorf("rainy solar %v not below sunny %v", dsRainy.SolarEnergy, dsSunny.SolarEnergy)
	}
	// Rainy days must lean on batteries: NAT higher on the worst node
	// (Fig 12's observation).
	rs, err := rainy.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sunny.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	worstRainy, _ := rs.WorstNode()
	worstSunny, _ := ss.WorstNode()
	if worstRainy.Metrics.NAT <= worstSunny.Metrics.NAT {
		t.Errorf("rainy NAT %v not above sunny NAT %v", worstRainy.Metrics.NAT, worstSunny.Metrics.NAT)
	}
}

func TestRunCollectsResult(t *testing.T) {
	s := newSim(t, "baat")
	res, err := s.Run([]solar.Weather{solar.Sunny, solar.Cloudy})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "BAAT" {
		t.Errorf("policy = %q, want BAAT", res.Policy)
	}
	if len(res.Days) != 2 {
		t.Fatalf("days = %d, want 2", len(res.Days))
	}
	if len(res.Nodes) != 6 {
		t.Fatalf("nodes = %d, want 6", len(res.Nodes))
	}
	if res.SoCHistogram.Total() == 0 {
		t.Error("no SoC samples collected")
	}
	if res.Throughput != res.Days[0].Throughput+res.Days[1].Throughput {
		t.Error("total throughput mismatch")
	}
	if _, ok := res.WorstNode(); !ok {
		t.Error("WorstNode failed on populated result")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := newSim(t, "baat")
	b := newSim(t, "baat")
	ra, err := a.Run([]solar.Weather{solar.Cloudy})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run([]solar.Weather{solar.Cloudy})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Throughput != rb.Throughput {
		t.Errorf("same seed diverged: %v vs %v", ra.Throughput, rb.Throughput)
	}
	for i := range ra.Nodes {
		if ra.Nodes[i].Metrics.NAT != rb.Nodes[i].Metrics.NAT {
			t.Errorf("node %d NAT diverged", i)
		}
	}
}

func TestRunUntilEndOfLife(t *testing.T) {
	s := newSim(t, "ebuff", func(c *Config) {
		c.Node.AgingConfig.AccelFactor = 400 // compress months into days
	})
	res, err := s.RunUntilEndOfLife(solar.Location{SunshineFraction: 0.3}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.FleetLifetime == 0 {
		t.Fatalf("no battery reached end-of-life in 60 accelerated days (health of worst node: %v)",
			worstHealth(res))
	}
	if len(res.Days) == 0 {
		t.Error("no days recorded")
	}
}

func worstHealth(res *Result) float64 {
	w := 1.0
	for _, n := range res.Nodes {
		if n.Health < w {
			w = n.Health
		}
	}
	return w
}

func TestRunUntilEndOfLifeValidation(t *testing.T) {
	s := newSim(t, "ebuff")
	if _, err := s.RunUntilEndOfLife(solar.Location{SunshineFraction: 2}, 10); err == nil {
		t.Error("invalid location accepted")
	}
	if _, err := s.RunUntilEndOfLife(solar.Location{SunshineFraction: 0.5}, 0); err == nil {
		t.Error("zero maxDays accepted")
	}
}

func TestManufacturingVariationCreatesSpread(t *testing.T) {
	s := newSim(t, "ebuff", func(c *Config) { c.ManufacturingSigma = 0.1 })
	res, err := s.Run([]solar.Weather{solar.Cloudy, solar.Cloudy})
	if err != nil {
		t.Fatal(err)
	}
	// With per-unit variation and shared load, NAT should differ across
	// nodes.
	first := res.Nodes[0].Metrics.NAT
	var spread bool
	for _, n := range res.Nodes[1:] {
		if n.Metrics.NAT != first {
			spread = true
			break
		}
	}
	if !spread {
		t.Error("no aging variation across nodes")
	}
}

func TestNodesAccessor(t *testing.T) {
	s := newSim(t, "ebuff")
	nodes := s.Nodes()
	if len(nodes) != 6 {
		t.Fatalf("Nodes() = %d, want 6", len(nodes))
	}
	// Mutating the returned slice must not affect the simulator.
	nodes[0] = nil
	if s.Nodes()[0] == nil {
		t.Error("Nodes() exposes internal slice")
	}
}
