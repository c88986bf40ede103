package experiments

import (
	"strings"
	"testing"

	"github.com/green-dc/baat/internal/battery"
)

// quickCfg runs experiments in reduced form; the full-fidelity checks live
// in the benchmark harness and EXPERIMENTS.md.
func quickCfg() Config {
	return Config{Seed: 42, Accel: 10, Quick: true}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{Accel: 0}).Validate(); err == nil {
		t.Error("zero accel accepted")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:   []string{"a note"},
	}
	out := tab.Render()
	for _, want := range []string{"== x: demo ==", "long-column", "333333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 23 {
		t.Fatalf("registry has %d entries, want 23", len(ids))
	}
	for _, id := range ids {
		if _, err := Lookup(id); err != nil {
			t.Errorf("Lookup(%q): %v", id, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestVoltageDropShape(t *testing.T) {
	tab, err := VoltageDrop(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 3: voltage falls over the months and the drop accelerates.
	if tab.Values["voltage_drop"] <= 0 {
		t.Errorf("no voltage drop: %v", tab.Values)
	}
	if tab.Values["late_vs_early_slope"] <= 1 {
		t.Errorf("voltage drop not accelerating: slope ratio %v", tab.Values["late_vs_early_slope"])
	}
}

func TestCapacityDropShape(t *testing.T) {
	tab, err := CapacityDrop(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if d := tab.Values["capacity_drop"]; d <= 0 || d > 0.4 {
		t.Errorf("capacity drop = %v, want (0, 0.4]", d)
	}
}

func TestEfficiencyDegradationShape(t *testing.T) {
	tab, err := EfficiencyDegradation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if d := tab.Values["efficiency_drop"]; d <= 0 {
		t.Errorf("efficiency drop = %v, want positive", d)
	}
	if e := tab.Values["final_efficiency"]; e < 0.5 || e > 0.95 {
		t.Errorf("final efficiency = %v, implausible for lead-acid", e)
	}
}

func TestCycleLifeShape(t *testing.T) {
	tab, err := CycleLifeCurves(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 10: shallow-to-deep cycle-life ratio near 2.
	if r := tab.Values["halving_ratio"]; r < 1.5 || r > 3 {
		t.Errorf("halving ratio = %v, want ≈2", r)
	}
}

func TestWeatherProfileShape(t *testing.T) {
	tab, err := WeatherProfile(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 12: rainy days drive more battery throughput than sunny days.
	if tab.Values["rainy_nat"] <= tab.Values["sunny_nat"] {
		t.Errorf("rainy NAT %v not above sunny %v", tab.Values["rainy_nat"], tab.Values["sunny_nat"])
	}
	// And leave batteries cycling at lower SoC.
	if tab.Values["rainy_pc"] >= tab.Values["sunny_pc"] {
		t.Errorf("rainy PC %v not below sunny %v", tab.Values["rainy_pc"], tab.Values["sunny_pc"])
	}
}

func TestAgingComparisonShape(t *testing.T) {
	tab, err := AgingComparison(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 13 (quick mode: young/cloudy): BAAT's worst battery sees no more
	// throughput than e-Buff's.
	if r := tab.Values["ebuff_vs_baat_nat_young_cloudy"]; r < 1 {
		t.Errorf("e-Buff/BAAT NAT ratio = %v, want >= 1", r)
	}
}

func TestLifetimeVsSunshineShape(t *testing.T) {
	tab, err := LifetimeVsSunshine(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 14: every BAAT variant must beat e-Buff on average.
	if g := tab.Values["baat_gain_avg"]; g <= 0 {
		t.Errorf("BAAT lifetime gain = %v, want positive", g)
	}
	if g := tab.Values["baat_s_gain_avg"]; g <= 0 {
		t.Errorf("BAAT-s lifetime gain = %v, want positive", g)
	}
	// And the full scheme beats its ablations.
	if tab.Values["baat_gain_avg"] < tab.Values["baat_s_gain_avg"] {
		t.Errorf("BAAT gain %v below BAAT-s %v", tab.Values["baat_gain_avg"], tab.Values["baat_s_gain_avg"])
	}
}

// renderQuick runs experiment id in quick mode on the given battery tier.
func renderQuick(t *testing.T, id string, model battery.Kind) string {
	t.Helper()
	runner, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.BatteryModel = model
	tab, err := runner(cfg)
	if err != nil {
		t.Fatalf("%s on %s: %v", id, model, err)
	}
	return tab.Render()
}

func TestBatteryModelReachesEveryHarness(t *testing.T) {
	// The planned-aging window (fig21) and the lifetime search
	// (ablation-floor) build their simulators the same way every harness
	// does, so the selected tier must show in their tables.
	for _, id := range []string{"fig21", "ablation-floor"} {
		if renderQuick(t, id, battery.KindLeadAcid) == renderQuick(t, id, battery.KindLinear) {
			t.Errorf("%s renders identically on the lead-acid and linear tiers", id)
		}
	}
}

func TestLifetimeVsRatioEveryTier(t *testing.T) {
	// Fig 15 resizes the node's own bank, so every tier keeps its
	// chemistry through the resize and passes node validation.
	for _, k := range battery.Kinds() {
		renderQuick(t, "fig15", k)
	}
}

func TestLifetimeVsRatioShape(t *testing.T) {
	tab, err := LifetimeVsRatio(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 15: heavier loading per Ah shortens e-Buff lifetime, and BAAT's
	// advantage grows with the ratio.
	if d := tab.Values["lifetime_drop_2_to_10"]; d <= 0 {
		t.Errorf("lifetime drop = %v, want positive", d)
	}
	if g := tab.Values["gain_growth"]; g <= 0 {
		t.Errorf("gain growth = %v, want positive", g)
	}
}

func TestDepreciationCostShape(t *testing.T) {
	tab, err := DepreciationCost(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 16: BAAT cuts annual depreciation.
	if r := tab.Values["cost_reduction"]; r <= 0 {
		t.Errorf("cost reduction = %v, want positive", r)
	}
}

func TestServerExpansionShape(t *testing.T) {
	tab, err := ServerExpansion(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 17: longer battery life affords extra servers.
	if e := tab.Values["max_expansion"]; e <= 0 {
		t.Errorf("max expansion = %v, want positive", e)
	}
}

func TestLowSoCDurationShape(t *testing.T) {
	tab, err := LowSoCDuration(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 18: BAAT reduces worst-node low-SoC exposure.
	if g := tab.Values["availability_gain"]; g <= 0 {
		t.Errorf("availability gain = %v, want positive", g)
	}
}

func TestSoCDistributionShape(t *testing.T) {
	tab, err := SoCDistribution(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 19: BAAT shifts mass toward the top bin and off the bottom bin.
	if tab.Values["baat_top_bin"] <= tab.Values["ebuff_top_bin"] {
		t.Errorf("BAAT top-bin mass %v not above e-Buff %v",
			tab.Values["baat_top_bin"], tab.Values["ebuff_top_bin"])
	}
	if tab.Values["baat_lowest_bin"] > tab.Values["ebuff_lowest_bin"] {
		t.Errorf("BAAT bottom-bin mass %v above e-Buff %v",
			tab.Values["baat_lowest_bin"], tab.Values["ebuff_lowest_bin"])
	}
}

func TestThroughputShape(t *testing.T) {
	tab, err := Throughput(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 20 (quick: old/cloudy only): BAAT beats e-Buff in the worst case.
	if g := tab.Values["baat_gain_worst_case"]; g <= 0 {
		t.Errorf("worst-case throughput gain = %v, want positive", g)
	}
}

func TestPerfVsDoDShape(t *testing.T) {
	tab, err := PerfVsDoD(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 21: deeper allowed discharge buys throughput.
	if g := tab.Values["gain_dod_90"]; g <= 0 {
		t.Errorf("gain at 90%% DoD = %v, want positive vs 40%%", g)
	}
}

func TestPlannedAgingBenefitShape(t *testing.T) {
	tab, err := PlannedAgingBenefit(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 22: planned aging beats e-Buff, and the short horizon (capped at
	// 90% DoD) is at least as aggressive as the long conservative one.
	if g := tab.Values["max_gain"]; g <= 0 {
		t.Errorf("max planned-aging gain = %v, want positive", g)
	}
	if tab.Values["gain_months_6"] < tab.Values["gain_months_48"] {
		t.Errorf("short-horizon gain %v below long-horizon %v",
			tab.Values["gain_months_6"], tab.Values["gain_months_48"])
	}
}

func TestUsageScenariosShape(t *testing.T) {
	tab, err := UsageScenarios(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: smoothing ages fastest with the largest variation; backup is
	// lightest.
	if !(tab.Values["smoothing_fade"] > tab.Values["demand_response_fade"] &&
		tab.Values["demand_response_fade"] > tab.Values["backup_fade"]) {
		t.Errorf("aging-speed ordering wrong: %v", tab.Values)
	}
	if tab.Values["smoothing_spread"] <= tab.Values["backup_spread"] {
		t.Errorf("variation ordering wrong: %v", tab.Values)
	}
}

func TestDemandSensitivityShape(t *testing.T) {
	tab, err := DemandSensitivity(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Table 3: Large/More drives the highest NAT; Small/Less the lowest.
	if tab.Values["class1_nat"] <= tab.Values["class3_nat"] {
		t.Errorf("Large/More NAT %v not above Small/Less %v",
			tab.Values["class1_nat"], tab.Values["class3_nat"])
	}
	// Large power hurts PC more than small power at equal energy.
	if tab.Values["class1_pc"] >= tab.Values["class2_pc"] {
		t.Errorf("Large-power PC %v not below small-power PC %v",
			tab.Values["class1_pc"], tab.Values["class2_pc"])
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every harness; skipped with -short")
	}
	tables, err := RunAll(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 23 {
		t.Fatalf("RunAll returned %d tables, want 23", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("experiment %s produced no rows", tab.ID)
		}
		if tab.Render() == "" {
			t.Errorf("experiment %s renders empty", tab.ID)
		}
	}
}
