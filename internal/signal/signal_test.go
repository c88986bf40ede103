package signal

import (
	"math"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/solar"
)

func TestWeatherIndexScale(t *testing.T) {
	if got := WeatherIndex(solar.Sunny); got != 1 {
		t.Errorf("sunny index = %v, want 1", got)
	}
	for _, w := range []solar.Weather{solar.Cloudy, solar.Rainy} {
		idx := WeatherIndex(w)
		if idx <= 0 || idx >= 1 {
			t.Errorf("%v index = %v, want in (0, 1)", w, idx)
		}
	}
	if WeatherIndex(solar.Cloudy) <= WeatherIndex(solar.Rainy) {
		t.Error("cloudy should out-generate rainy")
	}
}

func TestForecasterPriorBeforeObservations(t *testing.T) {
	f := NewSolarForecaster(1, DefaultHorizon)
	for d := 1; d <= DefaultHorizon; d++ {
		if got := f.SolarIndex(d); got != priorIndex {
			t.Errorf("day +%d before any observation = %v, want the prior %v", d, got, priorIndex)
		}
	}
}

func TestForecasterDeterministic(t *testing.T) {
	obs := []float64{1, 0.75, 0.375, 1, 0.75}
	a := NewSolarForecaster(7, DefaultHorizon)
	b := NewSolarForecaster(7, DefaultHorizon)
	for _, o := range obs {
		a.ObserveDay(o)
		b.ObserveDay(o)
		for d := 1; d <= DefaultHorizon; d++ {
			if a.SolarIndex(d) != b.SolarIndex(d) {
				t.Fatalf("same seed and observations diverged at +%d", d)
			}
		}
	}
	c := NewSolarForecaster(8, DefaultHorizon)
	for _, o := range obs {
		c.ObserveDay(o)
	}
	if a.SolarIndex(1) == c.SolarIndex(1) && a.SolarIndex(2) == c.SolarIndex(2) && a.SolarIndex(3) == c.SolarIndex(3) {
		t.Error("different seeds produced identical noise — the substream is not seeded")
	}
}

func TestForecastQueriesArePureReads(t *testing.T) {
	f := NewSolarForecaster(3, DefaultHorizon)
	f.ObserveDay(0.75)
	first := f.SolarIndex(2)
	for i := 0; i < 100; i++ {
		f.SolarIndex(1)
		f.SolarIndex(3)
	}
	if got := f.SolarIndex(2); got != first {
		t.Fatalf("querying advanced forecaster state: %v then %v", first, got)
	}
}

func TestForecastBoundsAndClamping(t *testing.T) {
	f := NewSolarForecaster(11, DefaultHorizon)
	obs := []float64{0, 1, 0.375, 0.75, 1, 0, 0.375}
	for _, o := range obs {
		f.ObserveDay(o)
		for _, d := range []int{-1, 0, 1, 2, 3, 4, 99} {
			idx := f.SolarIndex(d)
			if idx < 0 || idx > 1 || math.IsNaN(idx) {
				t.Fatalf("SolarIndex(%d) = %v, outside [0, 1]", d, idx)
			}
		}
		if f.SolarIndex(0) != f.SolarIndex(1) || f.SolarIndex(99) != f.SolarIndex(DefaultHorizon) {
			t.Fatal("out-of-range lookaheads must clamp to [1, horizon]")
		}
	}
}

// TestForecastErrorIsHonestlyNonzero pins the "honest forecaster" property:
// against a varying sky the forecast is neither an oracle (zero error would
// mean it peeked at the weather stream) nor garbage (persistence toward
// climatology must beat a coin toss on this spread).
func TestForecastErrorIsHonestlyNonzero(t *testing.T) {
	f := NewSolarForecaster(42, DefaultHorizon)
	weather := []solar.Weather{
		solar.Sunny, solar.Sunny, solar.Rainy, solar.Cloudy, solar.Sunny,
		solar.Rainy, solar.Rainy, solar.Cloudy, solar.Sunny, solar.Cloudy,
		solar.Sunny, solar.Rainy, solar.Cloudy, solar.Cloudy, solar.Sunny,
	}
	var absErr, n float64
	var predicted float64
	for i, w := range weather {
		if i > 0 {
			// Yesterday's 1-day-ahead forecast versus today's truth.
			absErr += math.Abs(predicted - WeatherIndex(w))
			n++
		}
		f.ObserveDay(WeatherIndex(w))
		predicted = f.SolarIndex(1)
	}
	mae := absErr / n
	if mae == 0 {
		t.Fatal("zero forecast error: the forecaster is peeking at the future")
	}
	if mae > 0.5 {
		t.Fatalf("mean absolute error %v: worse than guessing on a [0.375, 1] spread", mae)
	}
}

func TestForecasterSnapshotRestoreRoundTrip(t *testing.T) {
	f := NewSolarForecaster(5, DefaultHorizon)
	for _, o := range []float64{1, 0.375, 0.75} {
		f.ObserveDay(o)
	}
	st, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	g := NewSolarForecaster(999, DefaultHorizon) // wrong seed on purpose
	if err := g.Restore(st); err != nil {
		t.Fatal(err)
	}
	// Same remaining future: identical forecasts now and after identical
	// further observations (the rng state rode along).
	for _, o := range []float64{0.75, 1, 0.375} {
		for d := 1; d <= DefaultHorizon; d++ {
			if f.SolarIndex(d) != g.SolarIndex(d) {
				t.Fatalf("restored forecaster diverged at +%d", d)
			}
		}
		f.ObserveDay(o)
		g.ObserveDay(o)
	}
}

func TestForecasterRestoreRejectsCorruptState(t *testing.T) {
	f := NewSolarForecaster(5, DefaultHorizon)
	f.ObserveDay(0.75)
	good, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := []func(*ForecasterState){
		func(st *ForecasterState) { st.ClimN = -1 },
		func(st *ForecasterState) { st.Noise = st.Noise[:1] },
		func(st *ForecasterState) { st.Noise = append(st.Noise, 0) },
		func(st *ForecasterState) { st.Noise[0] = math.NaN() },
		func(st *ForecasterState) { st.Last = math.Inf(1) },
		func(st *ForecasterState) { st.RNG = nil },
		func(st *ForecasterState) { st.RNG = []byte("not an rng state") },
	}
	for i, mutate := range corrupt {
		st := good
		st.Noise = append([]float64(nil), good.Noise...)
		st.RNG = append([]byte(nil), good.RNG...)
		mutate(&st)
		g := NewSolarForecaster(5, DefaultHorizon)
		g.ObserveDay(0.375)
		before := g.SolarIndex(1)
		if err := g.Restore(st); err == nil {
			t.Errorf("corruption %d accepted", i)
		} else if g.SolarIndex(1) != before {
			t.Errorf("corruption %d mutated the forecaster despite the error", i)
		}
	}
}

func TestTOUTariff(t *testing.T) {
	tariff := DefaultTOUTariff()
	cases := map[time.Duration]float64{
		0:                               tariff.OffPeak,
		12 * time.Hour:                  tariff.OffPeak,
		17 * time.Hour:                  tariff.Peak,
		20*time.Hour + 59*time.Minute:   tariff.Peak,
		21 * time.Hour:                  tariff.OffPeak,
		24 * time.Hour:                  tariff.OffPeak, // wraps to midnight
		24*time.Hour + 18*time.Hour:     tariff.Peak,    // wraps into the peak
		-6 * time.Hour:                  tariff.Peak,    // negative wraps to 18:00
		-1 * time.Hour:                  tariff.OffPeak, // negative wraps to 23:00
		36*time.Hour + 30*time.Minute:   tariff.OffPeak,
		48*time.Hour + 17*time.Hour + 1: tariff.Peak,
	}
	for tod, want := range cases {
		if got := tariff.PriceAt(tod); got != want {
			t.Errorf("PriceAt(%v) = %v, want %v", tod, got, want)
		}
	}
	if tariff.Peak <= tariff.OffPeak {
		t.Error("default tariff's peak price should exceed off-peak")
	}
}
