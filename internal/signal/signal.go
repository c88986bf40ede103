// Package signal is the simulation's forward-looking signal plane: the
// inputs a planning controller can see ahead of time, as opposed to the
// fleet state it observes now. Two signals ship today — a deterministic
// persistence-based solar forecast and a time-of-use electricity tariff —
// threaded into core.Context so policies can look 24–72 h ahead without
// touching the engine.
//
// The forecaster is honest: it never peeks at the weather stream. It sees
// only the realized daily solar indices the simulator feeds it through
// ObserveDay, extrapolates by persistence toward the running climatology,
// and perturbs each horizon day with seeded noise from its own named rng
// substream. Forecast error against the actual weather is therefore real,
// deterministic, and reproducible — exactly what an evaluation of a
// forecast-consuming policy needs.
package signal

import (
	"fmt"
	"math"
	"time"

	"github.com/green-dc/baat/internal/rng"
	"github.com/green-dc/baat/internal/solar"
)

// Forecast predicts daily solar availability as a dimensionless index in
// [0, 1] (1 = a sunny day's energy budget; see WeatherIndex).
type Forecast interface {
	// Horizon is how many days ahead SolarIndex can predict.
	Horizon() int
	// SolarIndex returns the predicted solar index daysAhead days from
	// the current day (1 = tomorrow). Arguments outside [1, Horizon] are
	// clamped. It is a pure read: querying never advances any state.
	SolarIndex(daysAhead int) float64
}

// Tariff prices grid electricity by time of day, in $/kWh.
type Tariff interface {
	// PriceAt returns the price at the given time of day; inputs outside
	// [0, 24h) wrap.
	PriceAt(tod time.Duration) float64
}

// Signals bundles the signal plane handed to policies via core.Context.
// Either field may be nil; consumers must fall back to signal-free
// behavior.
type Signals struct {
	Solar Forecast
	Price Tariff
}

// WeatherIndex maps a realized weather condition to the solar index scale:
// the day's energy budget as a fraction of a sunny day's (sunny 1.0,
// cloudy 0.75, rainy 0.375 with the §VI-A budgets).
func WeatherIndex(w solar.Weather) float64 {
	return float64(solar.DailyBudget(w)) / float64(solar.DailyBudget(solar.Sunny))
}

// DefaultHorizon is the forecaster lookahead in days (72 h).
const DefaultHorizon = 3

const (
	// persistenceDecay is how fast the forecast relaxes from the last
	// observed day toward the running climatology as lookahead grows.
	persistenceDecay = 0.6
	// forecastSigma is the per-day forecast noise (index units).
	forecastSigma = 0.08
	// priorIndex is the forecast before any day has been observed.
	priorIndex = 0.7
)

// SolarForecaster is a deterministic persistence forecaster. Each observed
// day it records the realized index, updates its climatology, and redraws
// one batch of per-horizon-day noise from its seeded substream; queries
// between observations are pure reads of that state. Two forecasters built
// from the same seed and fed the same observations agree bit-for-bit, and
// the full state round-trips through Snapshot/Restore for checkpointing.
type SolarForecaster struct {
	stream  *rng.Stream
	horizon int
	last    float64
	climSum float64
	climN   int
	noise   []float64
}

// NewSolarForecaster derives the forecaster's noise stream from the run
// seed. Horizons below 1 are raised to 1.
func NewSolarForecaster(seed int64, horizon int) *SolarForecaster {
	if horizon < 1 {
		horizon = 1
	}
	return &SolarForecaster{
		stream:  rng.New(seed, rng.SignalForecast),
		horizon: horizon,
		noise:   make([]float64, horizon),
	}
}

// Horizon returns the lookahead in days.
func (f *SolarForecaster) Horizon() int { return f.horizon }

// ObserveDay feeds the realized solar index of the day that just started.
// The noise for the whole lookahead window is redrawn here, on a fixed
// one-batch-per-day schedule, so the stream position depends only on how
// many days were observed — never on how often forecasts were queried.
func (f *SolarForecaster) ObserveDay(index float64) {
	f.last = index
	f.climSum += index
	f.climN++
	for i := range f.noise {
		f.noise[i] = f.stream.NormFloat64() * forecastSigma
	}
}

// SolarIndex predicts the index daysAhead days out: climatology plus the
// decaying anomaly of the last observed day, perturbed by that horizon
// day's noise, clamped to [0, 1].
func (f *SolarForecaster) SolarIndex(daysAhead int) float64 {
	if daysAhead < 1 {
		daysAhead = 1
	}
	if daysAhead > f.horizon {
		daysAhead = f.horizon
	}
	if f.climN == 0 {
		return priorIndex
	}
	clim := f.climSum / float64(f.climN)
	decay := math.Pow(persistenceDecay, float64(daysAhead))
	idx := clim + (f.last-clim)*decay + f.noise[daysAhead-1]
	return math.Min(1, math.Max(0, idx))
}

// ForecasterState is the serializable forecaster state embedded in the
// simulator's checkpoint envelope.
type ForecasterState struct {
	Last    float64   `json:"last"`
	ClimSum float64   `json:"clim_sum"`
	ClimN   int       `json:"clim_n"`
	Noise   []float64 `json:"noise"`
	RNG     []byte    `json:"rng"`
}

// Snapshot captures the forecaster's exact state.
func (f *SolarForecaster) Snapshot() (ForecasterState, error) {
	rb, err := f.stream.MarshalBinary()
	if err != nil {
		return ForecasterState{}, fmt.Errorf("signal: snapshot forecaster rng: %w", err)
	}
	st := ForecasterState{
		Last:    f.last,
		ClimSum: f.climSum,
		ClimN:   f.climN,
		Noise:   append([]float64(nil), f.noise...),
		RNG:     rb,
	}
	return st, nil
}

// Restore rewinds the forecaster to a snapshot, validating before any
// mutation so a corrupt state leaves the forecaster untouched.
func (f *SolarForecaster) Restore(st ForecasterState) error {
	switch {
	case st.ClimN < 0:
		return fmt.Errorf("signal: restore forecaster: negative observation count %d", st.ClimN)
	case len(st.Noise) != f.horizon:
		return fmt.Errorf("signal: restore forecaster: %d noise slots, want horizon %d", len(st.Noise), f.horizon)
	case len(st.RNG) == 0:
		return fmt.Errorf("signal: restore forecaster: missing rng state")
	}
	for i, n := range st.Noise {
		if math.IsNaN(n) || math.IsInf(n, 0) {
			return fmt.Errorf("signal: restore forecaster: noise[%d] is not finite", i)
		}
	}
	if math.IsNaN(st.Last) || math.IsInf(st.Last, 0) || math.IsNaN(st.ClimSum) || math.IsInf(st.ClimSum, 0) {
		return fmt.Errorf("signal: restore forecaster: non-finite observation state")
	}
	if err := f.stream.UnmarshalBinary(st.RNG); err != nil {
		return fmt.Errorf("signal: restore forecaster: %w", err)
	}
	f.last = st.Last
	f.climSum = st.ClimSum
	f.climN = st.ClimN
	copy(f.noise, st.Noise)
	return nil
}

// TOUTariff is a two-rate time-of-use tariff: a flat off-peak price with a
// single peak window (the shape evcc-style smart-cost tariffs reduce to).
type TOUTariff struct {
	OffPeak   float64       // $/kWh outside the peak window
	Peak      float64       // $/kWh inside [PeakStart, PeakEnd)
	PeakStart time.Duration // time of day the peak window opens
	PeakEnd   time.Duration // time of day the peak window closes
}

// PriceAt returns the rate at the given time of day.
func (t TOUTariff) PriceAt(tod time.Duration) float64 {
	const day = 24 * time.Hour
	tod %= day
	if tod < 0 {
		tod += day
	}
	if tod >= t.PeakStart && tod < t.PeakEnd {
		return t.Peak
	}
	return t.OffPeak
}

// DefaultTOUTariff is a typical residential-style TOU curve: $0.08/kWh
// off-peak with a 17:00–21:00 peak at $0.24/kWh.
func DefaultTOUTariff() TOUTariff {
	return TOUTariff{OffPeak: 0.08, Peak: 0.24, PeakStart: 17 * time.Hour, PeakEnd: 21 * time.Hour}
}
