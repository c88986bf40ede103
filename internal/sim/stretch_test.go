package sim

// Dark stretches: RunDay steps a run of ticks outside the window and
// without solar in one shard pass, each node through every tick before the
// next node. Only end of life and a step error cross nodes on such ticks;
// these tests pin both reductions against stepping the same ticks one by
// one, and the stretches RunDay finds.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/signal"
	"github.com/green-dc/baat/internal/solar"
	"github.com/green-dc/baat/internal/telemetry"
)

// TestDarkStretchLengths pins the stretches of the warehouse workload's
// days (five-minute ticks): two a day, of 79 and 53 ticks, so 132 of its
// 288 ticks take two shard passes. At one-minute ticks 660 of 1,440 ticks
// are dark. On a metered fleet the evening stretch also ends at the end of
// the tariff's peak (21:00).
func TestDarkStretchLengths(t *testing.T) {
	stretches := func(s *Simulator, day *solar.Day, tariff signal.Tariff) []int {
		var out []int
		for tod := time.Duration(0); tod < 24*time.Hour; {
			k := 1
			if !s.inWindow(tod) && day.PowerAt(tod) == 0 {
				var price float64
				if tariff != nil {
					price = tariff.PriceAt(tod)
				}
				k = s.darkTicks(day, tod, tariff, price)
				out = append(out, k)
			}
			tod += time.Duration(k) * s.cfg.Tick
		}
		return out
	}
	sum := func(ks []int) (n int) {
		for _, k := range ks {
			n += k
		}
		return n
	}
	for _, tick := range []time.Duration{5 * time.Minute, time.Minute} {
		s := newSim(t, "ebuff", func(c *Config) { c.Tick = tick })
		for _, w := range []solar.Weather{solar.Sunny, solar.Cloudy, solar.Rainy} {
			day, err := solar.NewDay(w, s.cfg.Solar, s.wxRng.Rand)
			if err != nil {
				t.Fatal(err)
			}
			got := stretches(s, day, nil)
			metered := stretches(s, day, signal.DefaultTOUTariff())
			if tick == 5*time.Minute {
				if !reflect.DeepEqual(got, []int{79, 53}) || !reflect.DeepEqual(metered, []int{79, 17, 36}) {
					t.Errorf("%v, %v ticks: stretches %v, metered %v; want [79 53] and [79 17 36]",
						w, tick, got, metered)
				}
				continue
			}
			if n := sum(got); n != 660 || len(got) != 2 || sum(metered) != n {
				t.Errorf("%v, %v ticks: stretches %v (%d ticks), metered %v; want two of 660 ticks in all",
					w, tick, got, n, metered)
			}
		}
	}
}

// TestDarkStretchMatchesTickByTick steps a fault-free fleet through the
// first dark stretch of a day in one shard pass, and a copy of it through
// the same ticks one pass each, and requires the same checkpoint bytes, the
// same telemetry (counters, histograms and events) and the same fleet
// lifetime, at shard sizes 1 and 3 on one worker and two.
//
// The nodes are identical but for their wear, set so that six of them
// cross end of life inside the stretch at five different ticks: node 4
// and node 7, in different shards at either size, cross first and on the
// same tick; node 1, in an earlier shard, crosses later; and node 4
// crosses before node 3, and node 10 before node 9, in the same shard at
// size 3. So the battery_eol event must name node-4, at the end of the
// tick it crossed on, with its health then.
func TestDarkStretchMatchesTickByTick(t *testing.T) {
	targets := map[int]int{1: 40, 3: 30, 4: 10, 7: 10, 9: 60, 10: 25} // node → crossing tick
	const first, firstTick = 4, 10

	build := func(t *testing.T, shardSize, workers int, wear map[int]float64) (*Simulator, *telemetry.Recorder, int) {
		t.Helper()
		rec := telemetry.NewRecorder()
		s := newSim(t, "ebuff", func(c *Config) {
			c.Nodes = 12
			c.Tick = 5 * time.Minute
			c.ShardSize = shardSize
			c.Workers = workers
			c.ParallelThreshold = -1
			c.ManufacturingSigma = 0
			c.Node.AgingConfig.AccelFactor = 200
			c.Telemetry = rec
		})
		for i, w := range wear {
			s.nodes[i].InjectBatteryWear(w, 0, 0)
		}
		day, err := solar.NewDay(solar.Sunny, s.cfg.Solar, s.wxRng.Rand)
		if err != nil {
			t.Fatal(err)
		}
		return s, rec, s.darkTicks(day, 0, nil, 0)
	}
	tickByTick := func(t *testing.T, s *Simulator, ticks int, below func(tick int)) {
		t.Helper()
		for tick := 0; tick < ticks; tick++ {
			if err := s.step(pass{ticks: 1}); err != nil {
				t.Fatal(err)
			}
			s.book(1)
			if below != nil {
				below(tick)
			}
		}
	}

	// Calibrate the wear on the nodes themselves: every node starts at the
	// same base wear, and a node crosses on tick c when it starts its
	// decline half a tick's worth above end-of-life health at c.
	const base = 0.19
	all := map[int]float64{}
	for i := 0; i < 12; i++ {
		all[i] = base
	}
	cal, _, ticks := build(t, 3, 1, all)
	if ticks <= 60 {
		t.Fatalf("first dark stretch is %d ticks, want more than the 60 the targets need", ticks)
	}
	h0 := cal.nodes[0].Health()
	decline := make([]float64, ticks)
	tickByTick(t, cal, ticks, func(tick int) { decline[tick] = h0 - cal.nodes[0].Health() })
	wear := map[int]float64{}
	for i, c := range targets {
		prev := 0.0
		if c > 0 {
			prev = decline[c-1]
		}
		wear[i] = 1 - (battery.EndOfLifeHealth + (prev+decline[c])/2)
	}

	for _, shardSize := range []int{1, 3} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("shard_size=%d/workers=%d", shardSize, workers), func(t *testing.T) {
				run := func(stretch bool) ([]byte, []byte, []telemetry.Event, time.Duration) {
					s, rec, ticks := build(t, shardSize, workers, wear)
					if s.parallel {
						s.pool.Start()
						defer s.pool.Stop()
					}
					if stretch {
						if err := s.step(pass{ticks: ticks}); err != nil {
							t.Fatal(err)
						}
						s.book(ticks)
					} else {
						crossed := map[int]int{}
						tickByTick(t, s, ticks, func(tick int) {
							for i, nd := range s.nodes {
								if _, ok := crossed[i]; !ok && nd.Health() < battery.EndOfLifeHealth {
									crossed[i] = tick
								}
							}
						})
						if !reflect.DeepEqual(crossed, targets) {
							t.Fatalf("tick by tick, nodes crossed end of life on %v, want %v", crossed, targets)
						}
					}
					var ck bytes.Buffer
					if err := s.Checkpoint(&ck); err != nil {
						t.Fatal(err)
					}
					snap, err := json.Marshal(rec.Snapshot())
					if err != nil {
						t.Fatal(err)
					}
					var res Result
					s.finish(&res)
					var eol []telemetry.Event
					for _, ev := range rec.Events() {
						if ev.Type == telemetry.EventBatteryEOL {
							eol = append(eol, ev)
						}
					}
					return ck.Bytes(), snap, eol, res.FleetLifetime
				}
				ck1, tel1, eol1, life1 := run(false)
				ckK, telK, eolK, lifeK := run(true)
				if !bytes.Equal(ck1, ckK) {
					t.Error("checkpoint after the stretch differs from the tick-by-tick one")
				}
				if !bytes.Equal(tel1, telK) {
					t.Errorf("telemetry differs:\ntick by tick %s\nstretch      %s", tel1, telK)
				}
				want := time.Duration(firstTick+1) * 5 * time.Minute
				if life1 != want || lifeK != want {
					t.Errorf("FleetLifetime tick by tick %v, stretch %v; want %v", life1, lifeK, want)
				}
				if len(eol1) != 1 || eol1[0].Node != fmt.Sprintf("node-%d", first) || eol1[0].At != want {
					t.Fatalf("tick by tick battery_eol events %+v, want one naming node-%d at %v", eol1, first, want)
				}
				if !reflect.DeepEqual(eol1, eolK) {
					t.Errorf("battery_eol events: tick by tick %+v, stretch %+v", eol1, eolK)
				}
			})
		}
	}
}
