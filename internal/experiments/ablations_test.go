package experiments

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/server"
	"github.com/green-dc/baat/internal/sim"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

func TestAblationFloorShape(t *testing.T) {
	tab, err := AblationFloor(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The protective floor must buy battery lifetime.
	if g := tab.Values["floor_gain"]; g <= 0 {
		t.Errorf("floor lifetime gain = %v, want positive", g)
	}
}

func TestAblationMigrationShape(t *testing.T) {
	tab, err := AblationMigration(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Cheap migration must not yield less throughput than stop-and-copy.
	if g := tab.Values["throughput_gain"]; g < 0 {
		t.Errorf("cheap-migration throughput gain = %v, want >= 0", g)
	}
}

func TestArchitectureComparisonShape(t *testing.T) {
	tab, err := ArchitectureComparison(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Pooling smooths unit-to-unit aging variation.
	if tab.Values["rack_spread"] > tab.Values["server_spread"] {
		t.Errorf("rack health spread %v above per-server %v — pooling should smooth variation",
			tab.Values["rack_spread"], tab.Values["server_spread"])
	}
	// Both architectures must actually do work.
	if tab.Values["rack_throughput"] <= 0 || tab.Values["server_throughput"] <= 0 {
		t.Errorf("throughput missing: %v", tab.Values)
	}
}

func TestArchitectureComparisonSameWork(t *testing.T) {
	// Both arms host the same services and jobs under the same weather on
	// the same engine; only the battery topology differs. With no downtime
	// in either arm, they must complete the same work.
	compared := 0
	for _, seed := range []int64{1, 2, 3, 42} {
		cfg := quickCfg()
		cfg.Seed = seed
		tab, err := ArchitectureComparison(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v := tab.Values
		if v["server_downtime_hours"] != 0 || v["rack_downtime_hours"] != 0 {
			continue
		}
		compared++
		server, rack := v["server_throughput"], v["rack_throughput"]
		if rel := math.Abs(rack-server) / server; rel > 1e-9 {
			t.Errorf("seed %d: rack throughput %v vs per-server %v (relative difference %.3g) with no downtime in either arm",
				seed, rack, server, rel)
		}
	}
	if compared == 0 {
		t.Fatal("every seed had downtime; no downtime-free run to compare")
	}
}

func TestAsRacksDrawsLikeItsServers(t *testing.T) {
	// A rack node hosting its k servers' VMs draws exactly what the k
	// powered servers draw, at every DVFS level and through the services'
	// phase patterns, and its pool is k node packs.
	base := sim.DefaultConfig()
	rackCfg := base
	asRacks(&rackCfg)
	if rackCfg.Nodes*rackServers != base.Nodes {
		t.Fatalf("%d racks of %d servers, want %d servers", rackCfg.Nodes, rackServers, base.Nodes)
	}
	if got, want := rackCfg.Node.BatterySpec.NominalCapacity, base.Node.BatterySpec.NominalCapacity*rackServers; math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("pool capacity %v, want %v", got, want)
	}
	if err := rackCfg.Validate(); err != nil {
		t.Fatalf("rack config invalid: %v", err)
	}

	rackSrv, err := server.New("rack", rackCfg.Node.ServerSpec)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*server.Server, rackServers)
	services := workload.PrototypeServices()
	for i := range servers {
		if servers[i], err = server.New(fmt.Sprintf("server-%d", i), base.Node.ServerSpec); err != nil {
			t.Fatal(err)
		}
		for _, host := range []*server.Server{servers[i], rackSrv} {
			v, err := vm.New(fmt.Sprintf("%s/svc-%d", host.ID(), i), services[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := host.Attach(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	all := append([]*server.Server{rackSrv}, servers...)
	for _, s := range all {
		s.SetPowered(true)
	}
	for tick := 0; tick < 8*60; tick += 37 {
		// Walk every server down to the bottom of the ladder, then up one
		// level at a time.
		for _, s := range all {
			for s.StepDownFrequency() {
			}
		}
		for idx := 0; idx < len(rackSrv.Spec().FreqLevels); idx++ {
			var sum float64
			if idx > 0 {
				for _, s := range all {
					if !s.StepUpFrequency() {
						t.Fatalf("%s: no DVFS level above %d", s.ID(), idx-1)
					}
				}
			}
			for _, s := range servers {
				sum += float64(s.Power())
			}
			if got := float64(rackSrv.Power()); math.Abs(got-sum) > 1e-9*sum {
				t.Fatalf("minute %d, DVFS level %d: rack draws %v W, its servers %v W", tick, idx, got, sum)
			}
		}
		for _, s := range all {
			s.Step(37 * time.Minute)
		}
	}
}

// demandResponseValues runs the quick demand-response scenario and returns
// its table values.
func demandResponseValues(t *testing.T) map[string]float64 {
	t.Helper()
	tab, err := DemandResponse(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	return tab.Values
}

func TestDemandResponseShape(t *testing.T) {
	v := demandResponseValues(t)
	// Gross savings rise with aggressiveness; wear rises too.
	if v["aggressive_savings"] < v["baat_savings"] {
		t.Errorf("aggressive savings %v below BAAT floor %v", v["aggressive_savings"], v["baat_savings"])
	}
	if v["aggressive_wear"] <= v["timid_wear"] {
		t.Errorf("aggressive wear %v not above timid %v", v["aggressive_wear"], v["timid_wear"])
	}
}

func TestDemandResponseQuarterWear(t *testing.T) {
	// Table 1: a quarter of demand response at the BAAT floor wears the
	// batteries measurably, but far less than power-smoothing duty.
	v := demandResponseValues(t)
	if w := v["baat_wear"]; w <= 0 || w > 0.15 {
		t.Errorf("BAAT-floor wear %v, want in (0, 0.15]", w)
	}
	if v["baat_savings"] <= 0 {
		t.Errorf("BAAT floor saved %v over the quarter, want positive", v["baat_savings"])
	}
}

func TestDemandResponseFloorWearsLess(t *testing.T) {
	// The BAAT thesis applied to demand response: the floor preserves
	// battery health versus aggressive shaving, at some savings cost.
	v := demandResponseValues(t)
	if v["baat_wear"] >= v["aggressive_wear"] {
		t.Errorf("floor did not reduce wear: %v vs %v", v["baat_wear"], v["aggressive_wear"])
	}
	if v["baat_savings"] > v["aggressive_savings"] {
		t.Errorf("floor increased savings: %v vs %v", v["baat_savings"], v["aggressive_savings"])
	}
}

func TestDemandResponseNetAccountsForWear(t *testing.T) {
	// Wear is priced: every floor that shaves nets less than it saves.
	v := demandResponseValues(t)
	for _, key := range []string{"aggressive", "baat", "timid"} {
		if s, n := v[key+"_savings"], v[key+"_net"]; s <= 0 || n >= s {
			t.Errorf("%s: savings %v, net %v; want positive savings with depreciation netted out", key, s, n)
		}
	}
}
