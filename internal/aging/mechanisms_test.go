package aging

import (
	"math"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/units"
)

func mustModel(t *testing.T, cfg ModelConfig) *Model {
	t.Helper()
	m, err := NewModel(cfg, 35)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

func TestModelConfigValidate(t *testing.T) {
	if err := DefaultModelConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*ModelConfig)
	}{
		{"zero accel", func(c *ModelConfig) { c.AccelFactor = 0 }},
		{"negative corrosion", func(c *ModelConfig) { c.CorrosionPerHour = -1 }},
		{"negative shedding", func(c *ModelConfig) { c.SheddingPerFullCycle = -1 }},
		{"negative sulphation", func(c *ModelConfig) { c.SulphationPerHourDeep = -1 }},
		{"negative water", func(c *ModelConfig) { c.WaterLossPerOverchargeAh = -1 }},
		{"negative strat", func(c *ModelConfig) { c.StratificationPerPartialAh = -1 }},
		{"negative feedback", func(c *ModelConfig) { c.CorrosionFeedback = -1 }},
		{"zero temp doubling", func(c *ModelConfig) { c.TempDoublingC = 0 }},
		// NaN fails every check, TempRefC included, and +Inf every check
		// whose range is open above.
		{"NaN accel", func(c *ModelConfig) { c.AccelFactor = math.NaN() }},
		{"+Inf accel", func(c *ModelConfig) { c.AccelFactor = math.Inf(1) }},
		{"NaN temp doubling", func(c *ModelConfig) { c.TempDoublingC = math.NaN() }},
		{"+Inf temp doubling", func(c *ModelConfig) { c.TempDoublingC = math.Inf(1) }},
		{"NaN temp ref", func(c *ModelConfig) { c.TempRefC = units.Celsius(math.NaN()) }},
		{"+Inf temp ref", func(c *ModelConfig) { c.TempRefC = units.Celsius(math.Inf(1)) }},
		{"-Inf temp ref", func(c *ModelConfig) { c.TempRefC = units.Celsius(math.Inf(-1)) }},
		{"NaN corrosion", func(c *ModelConfig) { c.CorrosionPerHour = math.NaN() }},
		{"+Inf corrosion", func(c *ModelConfig) { c.CorrosionPerHour = math.Inf(1) }},
		{"NaN cycle fade", func(c *ModelConfig) { c.CycleFadePerEFC = math.NaN() }},
		{"+Inf high-SoC stress", func(c *ModelConfig) { c.HighSoCStress = math.Inf(1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultModelConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
	if _, err := NewModel(DefaultModelConfig(), 0); err == nil {
		t.Error("NewModel with zero capacity succeeded")
	}
}

func TestMechanismString(t *testing.T) {
	for _, m := range []Mechanism{Corrosion, Shedding, Sulphation, WaterLoss, Stratification} {
		if m.String() == "" {
			t.Errorf("mechanism %d has empty name", m)
		}
	}
	if Mechanism(42).String() == "" {
		t.Error("unknown mechanism should still render")
	}
}

func TestModelRejectsBadSample(t *testing.T) {
	m := mustModel(t, DefaultModelConfig())
	if err := m.Observe(Sample{Dt: 0}); err == nil {
		t.Error("zero-duration sample accepted")
	}
}

func TestDeepDischargeAgesFasterThanShallow(t *testing.T) {
	// Identical Ah throughput; one battery cycles at high SoC, the other
	// at low SoC. The low-SoC battery must age faster (§II-B, §III-C/D).
	shallow := mustModel(t, DefaultModelConfig())
	deep := mustModel(t, DefaultModelConfig())
	for i := 0; i < 24*30; i++ {
		if err := shallow.Observe(Sample{Dt: time.Hour, Current: 5, SoC: 0.9, Temperature: 25}); err != nil {
			t.Fatal(err)
		}
		if err := deep.Observe(Sample{Dt: time.Hour, Current: 5, SoC: 0.15, Temperature: 25}); err != nil {
			t.Fatal(err)
		}
	}
	if deep.Health() >= shallow.Health() {
		t.Errorf("deep-cycled health %v not below shallow-cycled %v", deep.Health(), shallow.Health())
	}
	deepMechs := deep.ByMechanism()
	shallowMechs := shallow.ByMechanism()
	if deepMechs[Sulphation] <= shallowMechs[Sulphation] {
		t.Error("sulphation did not accelerate at low SoC")
	}
	if deepMechs[Shedding] <= shallowMechs[Shedding] {
		t.Error("shedding did not accelerate at low SoC")
	}
}

func TestHighTemperatureAcceleratesAging(t *testing.T) {
	cool := mustModel(t, DefaultModelConfig())
	hot := mustModel(t, DefaultModelConfig())
	for i := 0; i < 24*30; i++ {
		if err := cool.Observe(Sample{Dt: time.Hour, Current: 3, SoC: 0.6, Temperature: 20}); err != nil {
			t.Fatal(err)
		}
		if err := hot.Observe(Sample{Dt: time.Hour, Current: 3, SoC: 0.6, Temperature: 30}); err != nil {
			t.Fatal(err)
		}
	}
	// §III-E: +10 °C halves lifetime, i.e. roughly doubles the rate.
	ratio := (1 - hot.Health()) / (1 - cool.Health())
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("damage ratio hot/cool = %v, want ~2 (Arrhenius doubling)", ratio)
	}
}

func TestHighDischargeRateAgesFaster(t *testing.T) {
	slow := mustModel(t, DefaultModelConfig())
	fast := mustModel(t, DefaultModelConfig())
	// Same 300 Ah throughput: 2 A for 150 h vs 15 A for 20 h.
	for i := 0; i < 150; i++ {
		if err := slow.Observe(Sample{Dt: time.Hour, Current: 2, SoC: 0.6, Temperature: 25}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := fast.Observe(Sample{Dt: time.Hour, Current: 15, SoC: 0.6, Temperature: 25}); err != nil {
			t.Fatal(err)
		}
	}
	if fast.ByMechanism()[Shedding] <= slow.ByMechanism()[Shedding] {
		t.Error("high-rate discharge did not increase shedding per Ah")
	}
}

func TestFullRechargeResetsStratificationDriver(t *testing.T) {
	m := mustModel(t, DefaultModelConfig())
	if err := m.Observe(Sample{Dt: 2 * time.Hour, Current: 5, SoC: 0.6, Temperature: 25}); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().SinceFull; got != 10 {
		t.Fatalf("SinceFull = %v, want 10", got)
	}
	// Charging at 99 %+ SoC marks a full recharge.
	if err := m.Observe(Sample{Dt: time.Hour, Current: -2, SoC: 0.99, Temperature: 25}); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().SinceFull; got != 0 {
		t.Errorf("SinceFull after full recharge = %v, want 0", got)
	}
}

func TestNeverFullyRechargedStratifies(t *testing.T) {
	partial := mustModel(t, DefaultModelConfig())
	full := mustModel(t, DefaultModelConfig())
	for day := 0; day < 60; day++ {
		for h := 0; h < 4; h++ {
			if err := partial.Observe(Sample{Dt: time.Hour, Current: 5, SoC: 0.7, Temperature: 25}); err != nil {
				t.Fatal(err)
			}
			if err := full.Observe(Sample{Dt: time.Hour, Current: 5, SoC: 0.7, Temperature: 25}); err != nil {
				t.Fatal(err)
			}
		}
		// partial only ever recharges to 90 %; full reaches 100 %.
		if err := partial.Observe(Sample{Dt: 4 * time.Hour, Current: -5, SoC: 0.90, Temperature: 25}); err != nil {
			t.Fatal(err)
		}
		if err := full.Observe(Sample{Dt: 4 * time.Hour, Current: -5, SoC: 0.99, Temperature: 25}); err != nil {
			t.Fatal(err)
		}
	}
	if partial.ByMechanism()[Stratification] <= full.ByMechanism()[Stratification] {
		t.Error("never-fully-recharged battery did not stratify more")
	}
}

func TestOverchargeCausesWaterLoss(t *testing.T) {
	m := mustModel(t, DefaultModelConfig())
	for i := 0; i < 100; i++ {
		if err := m.Observe(Sample{Dt: time.Hour, Current: -3, SoC: 0.98, Temperature: 30}); err != nil {
			t.Fatal(err)
		}
	}
	if m.ByMechanism()[WaterLoss] <= 0 {
		t.Error("sustained overcharge produced no water loss")
	}
	if m.Degradation().EfficiencyLoss <= 0 {
		t.Error("water loss did not reduce efficiency")
	}
}

func TestAccelFactorScalesDamage(t *testing.T) {
	base := mustModel(t, DefaultModelConfig())
	cfg := DefaultModelConfig()
	cfg.AccelFactor = 10
	fast := mustModel(t, cfg)
	s := Sample{Dt: time.Hour, Current: 5, SoC: 0.5, Temperature: 25}
	for i := 0; i < 100; i++ {
		if err := base.Observe(s); err != nil {
			t.Fatal(err)
		}
		if err := fast.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	ratio := (1 - fast.Health()) / (1 - base.Health())
	// Feedback terms make it slightly super-linear; it must be near 10.
	if ratio < 8 || ratio > 14 {
		t.Errorf("damage ratio with AccelFactor=10 is %v, want ≈10", ratio)
	}
}

func TestEstimateLifetime(t *testing.T) {
	m := mustModel(t, DefaultModelConfig())
	if got := m.EstimateLifetime(0); got != 0 {
		t.Errorf("EstimateLifetime(0) = %v, want 0", got)
	}
	// Fresh model with zero damage: effectively infinite.
	if got := m.EstimateLifetime(time.Hour); got < 1000*time.Hour {
		t.Errorf("EstimateLifetime with no damage = %v, want huge", got)
	}
	// Accumulate some damage, then extrapolate.
	for i := 0; i < 24*4; i++ {
		if err := m.Observe(Sample{Dt: time.Hour, Current: 8, SoC: 0.3, Temperature: 30}); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := 4 * 24 * time.Hour
	est := m.EstimateLifetime(elapsed)
	if est <= elapsed {
		t.Errorf("estimate %v not beyond elapsed %v for healthy battery", est, elapsed)
	}
	// Linear extrapolation sanity: fade so far over a month maps to the
	// remaining budget.
	fade := 1 - m.Health()
	wantH := elapsed.Hours() * (1 - battery.EndOfLifeHealth) / fade
	if gotH := est.Hours(); gotH < wantH*0.9 || gotH > wantH*1.1 {
		t.Errorf("estimate = %v h, want ≈%v h", gotH, wantH)
	}
}

func TestDegradationRendering(t *testing.T) {
	m := mustModel(t, DefaultModelConfig())
	for i := 0; i < 24*60; i++ {
		if err := m.Observe(Sample{Dt: time.Hour, Current: 6, SoC: 0.3, Temperature: 35}); err != nil {
			t.Fatal(err)
		}
	}
	d := m.Degradation()
	if d.CapacityFade <= 0 || d.ResistanceGrowth <= 0 {
		t.Errorf("degradation not accumulating: %+v", d)
	}
	if d.CapacityFade > 1 {
		t.Errorf("capacity fade %v exceeds 1", d.CapacityFade)
	}
	if h := m.Health(); !units.NearlyEqual(h, 1-d.CapacityFade, 1e-12) {
		t.Errorf("Health() = %v, want %v", h, 1-d.CapacityFade)
	}
}

// TestCalibrationSixMonths pins the damage-model constants to the paper's
// measured six-month drift (Figs 3–5): under daily cyclic use of a 12 V
// 35 Ah unit (StudyCycle: ~20 Ah out at 5 A, ≈57 % DoD, then a full solar
// recharge and a rest) the prototype lost ≈9 % loaded terminal voltage,
// ≈14 % of per-cycle stored energy, and ≈8 % round-trip efficiency.
func TestCalibrationSixMonths(t *testing.T) {
	pack, err := battery.New(battery.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	model := mustModel(t, DefaultModelConfig())

	const days = 180
	loadedVoltage := func() float64 {
		return float64(pack.TerminalVoltage(10)) // standard 10 A test load
	}
	v0 := loadedVoltage()

	for day := 0; day < days; day++ {
		if err := StudyCycle.Drive(pack, model); err != nil {
			t.Fatal(err)
		}
		pack.ApplyDegradation(model.Degradation())
	}

	// Fig 4: per-cycle stored energy down ≈14 % (we check capacity fade).
	fade := 1 - pack.Health()
	if fade < 0.09 || fade > 0.20 {
		t.Errorf("six-month capacity fade = %.1f%%, want ≈14%% (9–20%% band)", fade*100)
	}
	// Fig 3: loaded terminal voltage down ≈9 %.
	vDrop := (v0 - loadedVoltage()) / v0
	if vDrop < 0.05 || vDrop > 0.14 {
		t.Errorf("six-month loaded-voltage drop = %.1f%%, want ≈9%% (5–14%% band)", vDrop*100)
	}
	// Battery should still be above end-of-life after six months: the
	// paper's units kept operating (though visibly degraded).
	if pack.Health() < battery.EndOfLifeHealth {
		t.Errorf("health %v fell below EoL within six months", pack.Health())
	}
}
