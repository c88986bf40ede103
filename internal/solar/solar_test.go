package solar

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"github.com/green-dc/baat/internal/units"
)

func newDay(t *testing.T, w Weather, seed int64) *Day {
	t.Helper()
	d, err := NewDay(w, DefaultConfig(), rand.New(rand.NewPCG(uint64(seed), 0)))
	if err != nil {
		t.Fatalf("NewDay(%v): %v", w, err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"sunset before sunrise", func(c *Config) { c.Sunset = c.Sunrise - time.Hour }},
		{"negative sunrise", func(c *Config) { c.Sunrise = -time.Hour }},
		{"sunset past midnight", func(c *Config) { c.Sunset = 25 * time.Hour }},
		{"zero scale", func(c *Config) { c.Scale = 0 }},
		{"transient depth one", func(c *Config) { c.TransientDepth = 1 }},
		{"too few slots", func(c *Config) { c.Slots = 2 }},
		{"NaN scale", func(c *Config) { c.Scale = math.NaN() }},
		{"infinite scale", func(c *Config) { c.Scale = math.Inf(1) }},
		{"NaN transient depth", func(c *Config) { c.TransientDepth = math.NaN() }},
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

func TestNewDayErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(uint64(1), 0))
	if _, err := NewDay(Weather(42), DefaultConfig(), rng); err == nil {
		t.Error("unknown weather accepted")
	}
	if _, err := NewDay(Sunny, DefaultConfig(), nil); err == nil {
		t.Error("nil rng accepted")
	}
	bad := DefaultConfig()
	bad.Scale = -1
	if _, err := NewDay(Sunny, bad, rng); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDailyBudgets(t *testing.T) {
	// §VI-A: Sunny 8 kWh, Cloudy 6 kWh, Rainy 3 kWh.
	tests := []struct {
		w    Weather
		want units.WattHour
	}{
		{Sunny, 8000},
		{Cloudy, 6000},
		{Rainy, 3000},
		{Weather(9), 0},
	}
	for _, tt := range tests {
		if got := DailyBudget(tt.w); got != tt.want {
			t.Errorf("DailyBudget(%v) = %v, want %v", tt.w, got, tt.want)
		}
	}
}

func TestDayEnergyMatchesBudget(t *testing.T) {
	for _, w := range Weathers() {
		t.Run(w.String(), func(t *testing.T) {
			d := newDay(t, w, 7)
			got := float64(d.Energy(time.Minute))
			want := float64(DailyBudget(w))
			if got < want*0.97 || got > want*1.03 {
				t.Errorf("integrated energy = %.0f Wh, want ≈%.0f Wh", got, want)
			}
		})
	}
}

func TestScaleMultipliesEnergy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 2.5
	d, err := NewDay(Sunny, cfg, rand.New(rand.NewPCG(uint64(3), 0)))
	if err != nil {
		t.Fatal(err)
	}
	got := float64(d.Energy(time.Minute))
	want := 2.5 * float64(DailyBudget(Sunny))
	if got < want*0.97 || got > want*1.03 {
		t.Errorf("scaled energy = %.0f Wh, want ≈%.0f Wh", got, want)
	}
}

func TestNoGenerationAtNight(t *testing.T) {
	d := newDay(t, Sunny, 1)
	for _, tod := range []time.Duration{0, 3 * time.Hour, 6 * time.Hour, 20 * time.Hour, 23 * time.Hour} {
		if p := d.PowerAt(tod); p != 0 {
			t.Errorf("PowerAt(%v) = %v, want 0 at night", tod, p)
		}
	}
	if p := d.PowerAt(13 * time.Hour); p <= 0 {
		t.Errorf("PowerAt(13h) = %v, want > 0 at solar noon", p)
	}
}

func TestPowerAtWrapsTimeOfDay(t *testing.T) {
	d := newDay(t, Sunny, 1)
	if d.PowerAt(13*time.Hour) != d.PowerAt(37*time.Hour) {
		t.Error("PowerAt did not wrap at 24h")
	}
	if d.PowerAt(13*time.Hour) != d.PowerAt(13*time.Hour-24*time.Hour) {
		t.Error("PowerAt did not wrap negative offsets")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := newDay(t, Cloudy, 42)
	b := newDay(t, Cloudy, 42)
	for tod := time.Duration(0); tod < 24*time.Hour; tod += 17 * time.Minute {
		if a.PowerAt(tod) != b.PowerAt(tod) {
			t.Fatalf("same seed diverged at %v", tod)
		}
	}
}

func TestSunnyDaySmootherThanRainy(t *testing.T) {
	// Count relative dips against the clear-sky bell; rainy days must be
	// substantially choppier.
	variation := func(d *Day) float64 {
		var v float64
		prev := -1.0
		for tod := 8 * time.Hour; tod <= 18*time.Hour; tod += 15 * time.Minute {
			cur := float64(d.PowerAt(tod)) / float64(d.Peak())
			if prev >= 0 {
				diff := cur - prev
				if diff < 0 {
					diff = -diff
				}
				v += diff
			}
			prev = cur
		}
		return v
	}
	// Average over several seeds to avoid a lucky calm rainy day.
	var sunny, rainy float64
	for seed := int64(0); seed < 8; seed++ {
		sunny += variation(newDay(t, Sunny, seed))
		rainy += variation(newDay(t, Rainy, seed+100))
	}
	if rainy <= sunny {
		t.Errorf("rainy variation (%v) not above sunny (%v)", rainy, sunny)
	}
}

func TestPowerNonNegativeProperty(t *testing.T) {
	f := func(seed int64, minutes uint16) bool {
		d, err := NewDay(Cloudy, DefaultConfig(), rand.New(rand.NewPCG(uint64(seed), 0)))
		if err != nil {
			return false
		}
		tod := time.Duration(minutes) * time.Minute
		return d.PowerAt(tod) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLocationValidate(t *testing.T) {
	if err := (Location{SunshineFraction: 0.5}).Validate(); err != nil {
		t.Errorf("valid location rejected: %v", err)
	}
	for _, f := range []float64{-0.1, 1.1, math.NaN()} {
		if err := (Location{SunshineFraction: f}).Validate(); err == nil {
			t.Errorf("fraction %v accepted", f)
		}
	}
}

func TestDrawWeatherDistribution(t *testing.T) {
	rng := rand.New(rand.NewPCG(uint64(9), 0))
	loc := Location{SunshineFraction: 0.7}
	counts := map[Weather]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[loc.DrawWeather(rng)]++
	}
	sunny := float64(counts[Sunny]) / n
	if sunny < 0.67 || sunny > 0.73 {
		t.Errorf("sunny fraction = %v, want ≈0.7", sunny)
	}
	if counts[Cloudy] <= counts[Rainy] {
		t.Error("cloudy days should outnumber rainy days")
	}
}

func TestDrawWeatherExtremes(t *testing.T) {
	rng := rand.New(rand.NewPCG(uint64(5), 0))
	always := Location{SunshineFraction: 1}
	for i := 0; i < 100; i++ {
		if w := always.DrawWeather(rng); w != Sunny {
			t.Fatalf("fraction 1 produced %v", w)
		}
	}
	never := Location{SunshineFraction: 0}
	for i := 0; i < 100; i++ {
		if w := never.DrawWeather(rng); w == Sunny {
			t.Fatal("fraction 0 produced a sunny day")
		}
	}
}

func TestExpectedDailyBudgetMonotone(t *testing.T) {
	prev := units.WattHour(0)
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
		b := Location{SunshineFraction: f}.ExpectedDailyBudget()
		if b <= prev {
			t.Fatalf("expected budget not increasing at fraction %v: %v <= %v", f, b, prev)
		}
		prev = b
	}
	if got := (Location{SunshineFraction: 1}).ExpectedDailyBudget(); got != 8000 {
		t.Errorf("full-sun budget = %v, want 8000Wh", got)
	}
}

func TestWeatherString(t *testing.T) {
	if Sunny.String() != "sunny" || Cloudy.String() != "cloudy" || Rainy.String() != "rainy" {
		t.Error("weather labels wrong")
	}
	if Weather(0).String() == "" {
		t.Error("unknown weather should render")
	}
}
