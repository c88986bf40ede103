package baat_test

import (
	"testing"
	"time"

	baat "github.com/green-dc/baat"
)

func TestPublicQuickstart(t *testing.T) {
	cfg := baat.DefaultSimConfig()
	cfg.Policy = baat.PolicySpec{Name: "baat"}
	s, err := baat.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]baat.Weather{baat.Sunny, baat.Cloudy})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "BAAT" || res.Throughput <= 0 || len(res.Days) != 2 {
		t.Errorf("unexpected result: policy=%q throughput=%v days=%d", res.Policy, res.Throughput, len(res.Days))
	}
}

func TestPublicPolicyRegistry(t *testing.T) {
	infos := baat.RegisteredPolicies()
	if len(infos) < 4 {
		t.Fatalf("RegisteredPolicies() = %d entries, want at least the 4 of Table 4", len(infos))
	}
	for _, info := range infos {
		p, err := baat.BuildPolicy(baat.PolicySpec{Name: info.Name})
		if err != nil {
			t.Fatalf("BuildPolicy(%q): %v", info.Name, err)
		}
		if p.Name() != info.Display {
			t.Errorf("policy %q names itself %q, registry says %q", info.Name, p.Name(), info.Display)
		}
	}
	spec, err := baat.ParsePolicySpec("baat,floor=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := baat.BuildPolicy(spec); err != nil {
		t.Fatal(err)
	}
}

func TestPublicBatteryAndAging(t *testing.T) {
	pack, err := baat.NewBattery(baat.DefaultBatterySpec(), baat.WithInitialSoC(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if pack.SoC() != 0.8 {
		t.Errorf("SoC = %v, want 0.8", pack.SoC())
	}
	model, err := baat.NewAgingModel(baat.DefaultAgingModelConfig(), baat.DefaultBatterySpec().NominalCapacity)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pack.Discharge(100, time.Hour, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Observe(baat.AgingSample{
		Dt: time.Hour, Current: res.Current, SoC: pack.SoC(), Temperature: pack.Temperature(),
	}); err != nil {
		t.Fatal(err)
	}
	pack.ApplyDegradation(model.Degradation())
	if pack.Health() >= 1 {
		t.Error("no degradation applied")
	}
}

func TestPublicWorkloadsAndVMs(t *testing.T) {
	if got := len(baat.WorkloadKinds()); got != 6 {
		t.Fatalf("WorkloadKinds() = %d, want 6", got)
	}
	p, err := baat.WorkloadProfileFor(baat.KMeans)
	if err != nil {
		t.Fatal(err)
	}
	v, err := baat.NewVM("vm-1", p)
	if err != nil {
		t.Fatal(err)
	}
	if v.State() != baat.VMRunning {
		t.Errorf("state = %v, want running", v.State())
	}
	if len(baat.PrototypeServices()) != 6 {
		t.Error("prototype services should cover all six workloads")
	}
}

func TestPublicCycleLifeAndEquations(t *testing.T) {
	for _, m := range baat.Manufacturers() {
		c, err := baat.CycleLife(m, 0.5)
		if err != nil || c <= 0 {
			t.Errorf("CycleLife(%v) = (%v, %v)", m, c, err)
		}
	}
	sens := baat.DemandSensitivity(baat.DemandClass{LargePower: true, MoreEnergy: true})
	w := baat.WeightedAging(baat.Metrics{NAT: 0.5, CF: 0.5, PC: 0.5}, sens)
	if w <= 0 {
		t.Errorf("WeightedAging = %v, want positive for a worn battery", w)
	}
	goal, err := baat.DoDGoal(7000, 1000, 300, 35)
	if err != nil || goal <= 0 {
		t.Errorf("DoDGoal = (%v, %v)", goal, err)
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	ids := baat.Experiments()
	if len(ids) != 23 {
		t.Fatalf("Experiments() = %d entries, want 23 (15 figures + 2 tables + 6 extensions)", len(ids))
	}
	cfg := baat.DefaultExperimentConfig()
	cfg.Quick = true
	table, err := baat.RunExperiment("fig10", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if table.ID != "fig10" || len(table.Rows) == 0 {
		t.Errorf("fig10 table malformed: %+v", table)
	}
	if table.Render() == "" {
		t.Error("Render produced nothing")
	}
	if _, err := baat.RunExperiment("fig99", cfg); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestPublicCostModel(t *testing.T) {
	m := baat.DefaultCostModel()
	dep, err := m.AnnualBatteryDepreciation(6, 365*24*time.Hour)
	if err != nil || dep <= 0 {
		t.Errorf("depreciation = (%v, %v)", dep, err)
	}
}

func TestPublicMigration(t *testing.T) {
	a, err := baat.NewNode("a", baat.DefaultNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := baat.NewNode("b", baat.DefaultNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := baat.WorkloadProfileFor(baat.WordCount)
	if err != nil {
		t.Fatal(err)
	}
	v, err := baat.NewVM("v", p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Server().Attach(v); err != nil {
		t.Fatal(err)
	}
	if err := baat.MigrateVM(a, b, "v", baat.DefaultMigrationTime); err != nil {
		t.Fatal(err)
	}
	if len(b.Server().VMs()) != 1 {
		t.Error("VM did not land on destination")
	}
}
