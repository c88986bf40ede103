// Package solar models the photovoltaic supply feeding the BAAT prototype
// (DSN'15 §V-A: one solar line tapped from a roof-top PV panel).
//
// A day's generation is a diurnal bell curve scaled to the paper's measured
// daily energy budgets — Sunny 8 kWh, Cloudy 6 kWh, Rainy 3 kWh (§VI-A) —
// with weather-dependent cloud transients layered on top. Longer horizons
// draw day types from a Location's sunshine fraction, the knob Figs 14 and
// 17 sweep.
package solar

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"github.com/green-dc/baat/internal/units"
)

// Weather classifies a day's solar potential.
type Weather int

// The three weather conditions of §VI-A.
const (
	Sunny Weather = iota + 1
	Cloudy
	Rainy
)

// String returns the weather name.
func (w Weather) String() string {
	switch w {
	case Sunny:
		return "sunny"
	case Cloudy:
		return "cloudy"
	case Rainy:
		return "rainy"
	default:
		return fmt.Sprintf("Weather(%d)", int(w))
	}
}

// Weathers lists all conditions.
func Weathers() []Weather { return []Weather{Sunny, Cloudy, Rainy} }

// DailyBudget returns the paper's measured total generation for a weather
// condition at prototype scale (§VI-A).
func DailyBudget(w Weather) units.WattHour {
	switch w {
	case Sunny:
		return 8000
	case Cloudy:
		return 6000
	case Rainy:
		return 3000
	default:
		return 0
	}
}

// Config shapes a generated day.
type Config struct {
	// Sunrise and Sunset bound generation, expressed as offsets from
	// midnight. Defaults: 06:30 and 19:30.
	Sunrise time.Duration
	Sunset  time.Duration

	// Scale multiplies the daily budget, letting experiments grow the PV
	// array alongside the server fleet (Fig 15/17 sweeps).
	Scale float64

	// TransientDepth is the maximum fractional dip a passing cloud causes
	// (applied stochastically on cloudy/rainy days).
	TransientDepth float64

	// Slots is the number of equal intervals the day is divided into for
	// cloud-pattern sampling. Defaults to 96 (15-minute slots).
	Slots int
}

// DefaultConfig returns the prototype-scale defaults.
func DefaultConfig() Config {
	return Config{
		Sunrise:        6*time.Hour + 30*time.Minute,
		Sunset:         19*time.Hour + 30*time.Minute,
		Scale:          1,
		TransientDepth: 0.7,
		Slots:          96,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Sunrise < 0 || c.Sunset > 24*time.Hour || c.Sunset <= c.Sunrise {
		return fmt.Errorf("solar: need 0 <= sunrise < sunset <= 24h (got %v, %v)", c.Sunrise, c.Sunset)
	}
	if !(c.Scale > 0 && c.Scale <= math.MaxFloat64) {
		return fmt.Errorf("solar: scale must be positive and finite, got %v", c.Scale)
	}
	if !(c.TransientDepth >= 0 && c.TransientDepth < 1) {
		return fmt.Errorf("solar: transient depth must be in [0, 1), got %v", c.TransientDepth)
	}
	if c.Slots < 4 {
		return fmt.Errorf("solar: need at least 4 slots, got %d", c.Slots)
	}
	return nil
}

// Day is one generated day of solar supply. Construct with NewDay.
type Day struct {
	weather Weather
	cfg     Config
	peak    units.Watt
	pattern []float64 // per-slot multipliers, energy-normalized
}

// NewDay generates a day of the given weather. The rng drives the cloud
// pattern; passing the same seed reproduces the same trace, which is how
// the evaluation matches "the most similar solar generation scenarios"
// across policy runs (§VI-B) — all four policies replay identical days.
func NewDay(w Weather, cfg Config, rng *rand.Rand) (*Day, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w != Sunny && w != Cloudy && w != Rainy {
		return nil, fmt.Errorf("solar: unknown weather %v", w)
	}
	if rng == nil {
		return nil, fmt.Errorf("solar: rng must not be nil")
	}
	d := &Day{weather: w, cfg: cfg}

	// Cloud pattern: per-slot multiplicative dips whose frequency and
	// depth grow from sunny to rainy. Patterns are smoothed with a short
	// moving window so transients last a few slots, like real cloud cover.
	var dipProb, depthScale float64
	switch w {
	case Sunny:
		dipProb, depthScale = 0.05, 0.3
	case Cloudy:
		dipProb, depthScale = 0.45, 0.8
	case Rainy:
		dipProb, depthScale = 0.75, 1.0
	}
	raw := make([]float64, cfg.Slots)
	for i := range raw {
		raw[i] = 1
		if rng.Float64() < dipProb {
			raw[i] = 1 - cfg.TransientDepth*depthScale*rng.Float64()
		}
	}
	d.pattern = make([]float64, cfg.Slots)
	for i := range d.pattern {
		sum, n := 0.0, 0
		for j := i - 1; j <= i+1; j++ {
			if j >= 0 && j < cfg.Slots {
				sum += raw[j]
				n++
			}
		}
		d.pattern[i] = sum / float64(n)
	}

	// Normalize: the bell × pattern must integrate to the weather budget.
	daylight := cfg.Sunset - cfg.Sunrise
	budget := float64(DailyBudget(w)) * cfg.Scale
	// Integrate bell × pattern numerically over the slots.
	integral := 0.0 // in multiplier·hours against peak
	slotH := (24 * time.Hour).Hours() / float64(cfg.Slots)
	for i := 0; i < cfg.Slots; i++ {
		mid := time.Duration((float64(i) + 0.5) * float64(24*time.Hour) / float64(cfg.Slots))
		integral += d.bell(mid, daylight) * d.pattern[i] * slotH
	}
	if integral <= 0 {
		return nil, fmt.Errorf("solar: degenerate day (no daylight overlap)")
	}
	d.peak = units.Watt(budget / integral)
	return d, nil
}

// bell is the clear-sky diurnal shape: sin² between sunrise and sunset,
// normalized to 1 at solar noon.
func (d *Day) bell(tod time.Duration, daylight time.Duration) float64 {
	if tod < d.cfg.Sunrise || tod > d.cfg.Sunset {
		return 0
	}
	x := float64(tod-d.cfg.Sunrise) / float64(daylight)
	s := math.Sin(math.Pi * x)
	return s * s
}

// Weather returns the day's weather class.
func (d *Day) Weather() Weather { return d.weather }

// PowerAt returns generation at the given time of day (offset from
// midnight, clamped into [0, 24h)).
func (d *Day) PowerAt(tod time.Duration) units.Watt {
	for tod < 0 {
		tod += 24 * time.Hour
	}
	tod %= 24 * time.Hour
	slot := int(float64(tod) / float64(24*time.Hour) * float64(d.cfg.Slots))
	if slot >= d.cfg.Slots {
		slot = d.cfg.Slots - 1
	}
	p := d.bell(tod, d.cfg.Sunset-d.cfg.Sunrise) * d.pattern[slot] * float64(d.peak)
	if p < 0 {
		p = 0
	}
	return units.Watt(p)
}

// Energy numerically integrates the day's generation with the given step.
func (d *Day) Energy(step time.Duration) units.WattHour {
	if step <= 0 {
		step = time.Minute
	}
	var total units.WattHour
	for t := time.Duration(0); t < 24*time.Hour; t += step {
		total += units.EnergyOver(d.PowerAt(t), step)
	}
	return total
}

// Peak returns the normalization peak power for the day.
func (d *Day) Peak() units.Watt { return d.peak }

// Location models a deployment site by its sunshine fraction: the fraction
// of daytime with recorded sunshine (§VI-C, [41]). It determines the mix of
// sunny/cloudy/rainy days an experiment draws.
type Location struct {
	// SunshineFraction is in [0, 1].
	SunshineFraction float64
}

// Validate checks the location.
func (l Location) Validate() error {
	if !(l.SunshineFraction >= 0 && l.SunshineFraction <= 1) {
		return fmt.Errorf("solar: sunshine fraction must be in [0, 1], got %v", l.SunshineFraction)
	}
	return nil
}

// DrawWeather samples one day's weather. Sunny days appear with the
// sunshine-fraction probability; the remainder splits between cloudy and
// rainy with cloudier sites also being rainier.
func (l Location) DrawWeather(rng *rand.Rand) Weather {
	f := units.Clamp01(l.SunshineFraction)
	r := rng.Float64()
	if r < f {
		return Sunny
	}
	// Remaining probability: 2/3 cloudy, 1/3 rainy.
	if r < f+(1-f)*2/3 {
		return Cloudy
	}
	return Rainy
}

// ExpectedDailyBudget returns the mean daily generation for the location at
// prototype scale, useful for capacity planning (Fig 17).
func (l Location) ExpectedDailyBudget() units.WattHour {
	f := units.Clamp01(l.SunshineFraction)
	rest := 1 - f
	return units.WattHour(f*float64(DailyBudget(Sunny)) +
		rest*2/3*float64(DailyBudget(Cloudy)) +
		rest/3*float64(DailyBudget(Rainy)))
}
