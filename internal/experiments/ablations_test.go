package experiments

import "testing"

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
