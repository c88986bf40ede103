package experiments

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/green-dc/baat/internal/battery"
	"github.com/green-dc/baat/internal/rng"
	"github.com/green-dc/baat/internal/sim"
)

// AblationFloor isolates the protective-discharge-floor mechanism: full
// BAAT with the floor effectively disabled (protection-only, 5 %) against
// the default 35 % floor. The floor is the design choice DESIGN.md calls
// load-bearing for every lifetime result; this quantifies it.
func AblationFloor(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-floor",
		Title:   "Ablation: BAAT with and without the protective SoC floor",
		Columns: []string{"variant", "lifetime (mo)", "per-day throughput"},
		Values:  map[string]float64{},
	}
	const frac = 0.6
	variants := []struct {
		name  string
		key   string
		floor float64
	}{
		{"floor disabled (0.05)", "nofloor", 0.05},
		{"default floor (0.35)", "floor", 0.35},
	}
	type cell struct {
		life time.Duration
		thr  float64
	}
	cells := make([]cell, len(variants))
	if err := runSweep(cfg.sweepWorkers(), len(variants), func(i int) error {
		spec := withOptions(cfg.treatment(), map[string]string{
			"floor": strconv.FormatFloat(variants[i].floor, 'g', -1, 64),
		})
		life, thr, err := fleetLifetime(cfg, spec, frac, nil)
		if err != nil {
			return err
		}
		cells[i] = cell{life, thr}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, v := range variants {
		life, thr := cells[i].life, cells[i].thr
		t.Rows = append(t.Rows, []string{
			v.name, fmt.Sprintf("%.1f", life.Hours()/(30*24)), fmt.Sprintf("%.1f", thr),
		})
		t.Values[v.key+"_months"] = life.Hours() / (30 * 24)
		t.Values[v.key+"_throughput"] = thr
	}
	if base := t.Values["nofloor_months"]; base > 0 {
		t.Values["floor_gain"] = t.Values["floor_months"]/base - 1
	}
	t.Notes = append(t.Notes,
		"the floor keeps batteries out of the steep region of the cycle-life curve;",
		"without it BAAT degenerates toward e-Buff lifetimes")
	return t, nil
}

// AblationMigration isolates the migration arm: full BAAT with cheap live
// migration (the default 2-minute pause) against migration so expensive it
// is effectively self-defeating — the pathology the paper attributes to
// BAAT-h's uncoordinated migrations (§VI-F).
func AblationMigration(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-migration",
		Title:   "Ablation: migration cost in the slowdown/hiding arms",
		Columns: []string{"variant", "lifetime (mo)", "per-day throughput"},
		Values:  map[string]float64{},
	}
	const frac = 0.6
	variants := []struct {
		name     string
		key      string
		transfer time.Duration
	}{
		{"live migration (2 min)", "cheap", 2 * time.Minute},
		{"stop-and-copy (30 min)", "costly", 30 * time.Minute},
	}
	type cell struct {
		life time.Duration
		thr  float64
	}
	cells := make([]cell, len(variants))
	if err := runSweep(cfg.sweepWorkers(), len(variants), func(i int) error {
		spec := withOptions(cfg.treatment(), map[string]string{
			"migration-time": variants[i].transfer.String(),
		})
		life, thr, err := fleetLifetime(cfg, spec, frac, nil)
		if err != nil {
			return err
		}
		cells[i] = cell{life, thr}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, v := range variants {
		life, thr := cells[i].life, cells[i].thr
		t.Rows = append(t.Rows, []string{
			v.name, fmt.Sprintf("%.1f", life.Hours()/(30*24)), fmt.Sprintf("%.1f", thr),
		})
		t.Values[v.key+"_months"] = life.Hours() / (30 * 24)
		t.Values[v.key+"_throughput"] = thr
	}
	if base := t.Values["costly_throughput"]; base > 0 {
		t.Values["throughput_gain"] = t.Values["cheap_throughput"]/base - 1
	}
	t.Notes = append(t.Notes,
		"expensive migration pauses eat the throughput the slowdown arm tries to protect")
	return t, nil
}

// rackServers is how many servers share one pooled battery in the
// per-rack arm of ArchitectureComparison: the prototype's six servers
// become two racks, and each pool holds six of the twelve 35 Ah units.
const rackServers = 3

// asRacks turns each engine node into a rack of rackServers servers on one
// pooled battery. Server power is linear in hosted utilization
// (Idle + (Peak−Idle)·util·f³), so a node with k times the idle draw, the
// same dynamic range and k times the CPU capacity draws exactly what k
// powered servers do. The pool is k nodes' packs in parallel on whatever
// tier the node template runs, and it averages away the independent
// manufacturing variation of its k packs.
func asRacks(c *sim.Config) {
	const k = rackServers
	c.Nodes /= k
	c.Node.BatterySpec = battery.Parallel(c.Node.BatterySpec, k)
	s := &c.Node.ServerSpec
	dynamic := s.PeakPower - s.IdlePower
	s.IdlePower *= k
	s.PeakPower = s.IdlePower + dynamic
	s.CPUCapacity *= k
	c.ManufacturingSigma /= math.Sqrt(k)
}

// ArchitectureComparison contrasts the two distributed energy-storage
// architectures of Fig 7 under identical capacity, weather, and load:
// per-server batteries (two 35 Ah units per server, the Google style) vs
// per-rack pools (three servers sharing six units, the Open Rack style),
// both used aggressively (no aging management), over a multi-day window.
// Both arms are the same engine run; the per-rack arm only reshapes the
// fleet with asRacks, so a rack goes dark as a unit when its pool cannot
// carry it.
func ArchitectureComparison(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	days := 10
	if cfg.Quick {
		days = 4
	}
	seq := weatherSequence(cfg.Seed, rng.ExpArchitecture, 0.4, days)

	t := &Table{
		ID:      "arch-comparison",
		Title:   "Per-server batteries vs per-rack pools (equal capacity, e-Buff usage)",
		Columns: []string{"architecture", "throughput", "worst health", "health spread", "worst downtime"},
		Values:  map[string]float64{},
	}

	// The two architectures are independent runs of the same prototype;
	// slot 0 is per-server, slot 1 the per-rack pools.
	arches := []struct {
		name, key string
		tweaks    []func(*sim.Config)
	}{
		{"per-server (6 × 2 units)", "server", nil},
		{"per-rack (2 × 6-unit pool)", "rack", []func(*sim.Config){asRacks}},
	}
	type arch struct {
		thr, worst, spread float64
		down               time.Duration
	}
	cells := make([]arch, len(arches))
	if err := runSweep(cfg.sweepWorkers(), len(arches), func(i int) error {
		s, err := prototypeSimWithScale(cfg, specEBuff, tightScale, arches[i].tweaks...)
		if err != nil {
			return err
		}
		res, err := s.Run(seq)
		if err != nil {
			return err
		}
		worst, best := 1.0, 0.0
		var worstDown time.Duration
		for _, n := range res.Nodes {
			if n.Health < worst {
				worst = n.Health
			}
			if n.Health > best {
				best = n.Health
			}
			if n.Downtime > worstDown {
				worstDown = n.Downtime
			}
		}
		cells[i] = arch{res.Throughput, worst, best - worst, worstDown}
		return nil
	}); err != nil {
		return nil, err
	}

	for i, a := range arches {
		c := cells[i]
		t.Rows = append(t.Rows, []string{
			a.name,
			fmt.Sprintf("%.1f", c.thr),
			f3(c.worst), f3(c.spread), c.down.Round(time.Minute).String(),
		})
		t.Values[a.key+"_throughput"] = c.thr
		t.Values[a.key+"_worst_health"] = c.worst
		t.Values[a.key+"_spread"] = c.spread
		t.Values[a.key+"_downtime_hours"] = c.down.Hours()
	}

	t.Notes = append(t.Notes,
		"a rack is one engine node: three servers on one bus sharing a six-unit pool;",
		"the pool averages its packs' variation and its servers' loads (smaller spread)",
		"but couples failure domains: when it cannot carry the rack, all three servers",
		"go dark at once (§II-A); stratification and water loss are booked per absolute",
		"Ah, not per unit of capacity, so a pool three node-packs deep takes three times",
		"a node's fade from them — that model term, not pooling, lowers its worst health")
	return t, nil
}
