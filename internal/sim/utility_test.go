package sim

// Utility metering: DayStats.UtilityEnergy and UtilityCost price the
// fleet's grid-backup draw at the policy context's tariff, identically at
// any worker count, and leave runs without utility backup untouched.

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/core"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/units"
	"github.com/green-dc/baat/internal/workload"
)

// utilityConfig is a 12-node prototype-style fleet on utility backup under
// peak-shave, serving load through the 17:00–21:00 tariff peak and an hour
// past it (so the day's last price segment draws too), with one control
// pass per tick. The high floor keeps utility in play during the peak as
// well as off-peak.
func utilityConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Policy = core.PolicySpec{Name: "peak-shave", Options: map[string]string{"floor": "0.6"}}
	cfg.Nodes = 12
	cfg.Workers = workers
	cfg.ShardSize = 3
	cfg.ParallelThreshold = -1
	cfg.Services = workload.PrototypeServices()
	cfg.Solar.Scale = 1.5 * float64(cfg.Nodes) / 6
	cfg.Node.UtilityBackup = true
	cfg.WindowEnd = 22 * time.Hour
	cfg.ControlPeriod = cfg.Tick
	return cfg
}

var utilityWeather = []solar.Weather{solar.Sunny, solar.Rainy, solar.Cloudy}

// meterPolicy is the independent oracle: it wraps the run's policy and, at
// every control pass, books the fleet's utility draw since the previous
// pass at the price of the tick that drew it. With one control pass per
// tick (and utility drawn only in the operating window, where every tick
// ends in a pass) that is a per-tick Σ energy × price.
type meterPolicy struct {
	core.Policy
	tick              time.Duration
	mark              units.WattHour
	cost              float64
	peakWh, offPeakWh float64
}

func (m *meterPolicy) Control(ctx *core.Context) error {
	var total units.WattHour
	for _, n := range ctx.Nodes {
		total += n.Stats().UtilityEnergy
	}
	wh := float64(total - m.mark)
	m.mark = total
	tariff := ctx.Signals.Price
	price := tariff.PriceAt(ctx.Clock - m.tick)
	m.cost += wh / 1000 * price
	if price > tariff.PriceAt(0) {
		m.peakWh += wh
	} else {
		m.offPeakWh += wh
	}
	return m.Policy.Control(ctx)
}

func TestUtilityCostMatchesPerTickOracle(t *testing.T) {
	s, err := New(utilityConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	meter := &meterPolicy{Policy: s.policy, tick: s.cfg.Tick}
	s.policy = meter
	for _, w := range utilityWeather {
		cost, mark := meter.cost, meter.mark
		ds, err := s.RunDay(w)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(meter.mark - mark); math.Abs(float64(ds.UtilityEnergy)-want) > 1e-9*want {
			t.Errorf("day %d: UtilityEnergy %v Wh, oracle %v Wh", ds.Day, ds.UtilityEnergy, want)
		}
		if want := meter.cost - cost; math.Abs(ds.UtilityCost-want) > 1e-9*want {
			t.Errorf("day %d: UtilityCost $%v, oracle $%v", ds.Day, ds.UtilityCost, want)
		}
	}
	if meter.peakWh <= 0 || meter.offPeakWh <= 0 {
		t.Fatalf("scenario must draw utility both in and out of the peak: peak %v Wh, off-peak %v Wh",
			meter.peakWh, meter.offPeakWh)
	}
}

func TestUtilityAccountingWorkerInvariant(t *testing.T) {
	run := func(workers int) []byte {
		s, err := New(utilityConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(utilityWeather)
		if err != nil {
			t.Fatal(err)
		}
		if res.Days[0].UtilityCost <= 0 {
			t.Fatalf("workers %d: no utility cost booked", workers)
		}
		return marshaledResult(t, res)
	}
	serial := run(1)
	for _, workers := range []int{4, 8} {
		if !bytes.Equal(serial, run(workers)) {
			t.Errorf("Workers=%d diverged from the serial result", workers)
		}
	}
}

// A run without utility backup serializes its day stats exactly as it did
// before the utility fields existed.
func TestDayStatsJSONWithoutUtility(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.RunDay(solar.Rainy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Day         int
		Weather     solar.Weather
		Throughput  float64
		Downtime    time.Duration
		LowSoCTime  time.Duration
		SolarEnergy units.WattHour
	}{ds.Day, ds.Weather, ds.Throughput, ds.Downtime, ds.LowSoCTime, ds.SolarEnergy})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("day stats JSON changed:\n got %s\nwant %s", got, want)
	}
}
