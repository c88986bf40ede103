package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/vm"
	"github.com/green-dc/baat/internal/workload"
)

func newFleet(t *testing.T, n int) []*node.Node {
	t.Helper()
	nodes := make([]*node.Node, 0, n)
	for i := 0; i < n; i++ {
		nd, err := node.New(string(rune('a'+i)), node.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	return nodes
}

func newCtx(t *testing.T, n int) *Context {
	t.Helper()
	return &Context{Nodes: newFleet(t, n), Rng: rand.New(rand.NewPCG(uint64(1), 0))}
}

// build constructs a policy through the public registry, the same path
// every production caller uses.
func build(t *testing.T, name string, opts map[string]string) Policy {
	t.Helper()
	p, err := Build(PolicySpec{Name: name, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newVM(t *testing.T, id string, k workload.Kind) *vm.VM {
	t.Helper()
	p, err := workload.ProfileFor(k)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(id, p)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// drain discharges a node's battery to roughly the target SoC and feeds the
// usage into its aging metrics.
func drain(t *testing.T, n *node.Node, target float64) {
	t.Helper()
	v := newVM(t, n.ID()+"-drain", workload.SoftwareTesting)
	if err := n.Server().Attach(v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24*60 && n.Battery().SoC() > target; i++ {
		if err := n.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Server().Detach(v.ID()); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad trigger", func(c *Config) { c.Slowdown.TriggerSoC = 0 }},
		{"bad ddt", func(c *Config) { c.Slowdown.DDTThreshold = 2 }},
		{"bad reserve", func(c *Config) { c.Slowdown.ReserveTime = 0 }},
		{"bad hysteresis", func(c *Config) { c.Slowdown.Hysteresis = 1 }},
		{"bad migration time", func(c *Config) { c.MigrationTime = 0 }},
		{"bad planned life", func(c *Config) { c.Planned = PlannedAgingConfig{Enabled: true, ServiceLife: 0, CyclesPerDay: 1} }},
		{"bad planned cycles", func(c *Config) {
			c.Planned = PlannedAgingConfig{Enabled: true, ServiceLife: time.Hour, CyclesPerDay: 0}
		}},
		// NaN fails every range check; an infinite cycle count is not a plan.
		{"NaN floor", func(c *Config) { c.Slowdown.FloorSoC = math.NaN() }},
		{"NaN trigger", func(c *Config) { c.Slowdown.TriggerSoC = math.NaN() }},
		{"NaN ddt", func(c *Config) { c.Slowdown.DDTThreshold = math.NaN() }},
		{"NaN hysteresis", func(c *Config) { c.Slowdown.Hysteresis = math.NaN() }},
		{"NaN planned cycles", func(c *Config) {
			c.Planned = PlannedAgingConfig{Enabled: true, ServiceLife: time.Hour, CyclesPerDay: math.NaN()}
		}},
		{"infinite planned cycles", func(c *Config) {
			c.Planned = PlannedAgingConfig{Enabled: true, ServiceLife: time.Hour, CyclesPerDay: math.Inf(1)}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
	// Disabled planned aging needs no parameters.
	cfg := DefaultConfig()
	cfg.Planned = PlannedAgingConfig{Enabled: false}
	if err := cfg.Validate(); err != nil {
		t.Errorf("disabled planned aging rejected: %v", err)
	}
}

func TestBuildAllRegistered(t *testing.T) {
	for _, info := range Registered() {
		p, err := Build(PolicySpec{Name: info.Name})
		if err != nil {
			t.Fatalf("Build(%q): %v", info.Name, err)
		}
		if p.Name() != info.Display {
			t.Errorf("%s: Name() = %q, want display name %q", info.Name, p.Name(), info.Display)
		}
	}
	if _, err := Build(PolicySpec{Name: "overclock"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestEBuffPlacesOnLeastLoaded(t *testing.T) {
	ctx := newCtx(t, 3)
	p := build(t, "ebuff", nil)
	// Pre-load node 0 and 1.
	if err := ctx.Nodes[0].Server().Attach(newVM(t, "x", workload.WebServing)); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Nodes[1].Server().Attach(newVM(t, "y", workload.WordCount)); err != nil {
		t.Fatal(err)
	}
	got, err := p.PlaceVM(ctx, newVM(t, "new", workload.KMeans))
	if err != nil {
		t.Fatal(err)
	}
	if got != ctx.Nodes[2] {
		t.Errorf("placed on %s, want empty node c", got.ID())
	}
}

func TestPlaceVMNoCapacity(t *testing.T) {
	ctx := newCtx(t, 2)
	for i, n := range ctx.Nodes {
		for j := 0; j < 2; j++ { // two 0.95-peak VMs fill the 2.0 capacity
			id := fmt.Sprintf("p%d-%d", i, j)
			if err := n.Server().Attach(newVM(t, id, workload.SoftwareTesting)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, info := range Registered() {
		p := build(t, info.Name, nil)
		if _, err := p.PlaceVM(ctx, newVM(t, "big-"+info.Name, workload.SoftwareTesting)); !errors.Is(err, ErrNoCapacity) {
			t.Errorf("%v: PlaceVM error = %v, want ErrNoCapacity", info.Name, err)
		}
	}
}

func TestBAATPlacesOnSlowestAgingNode(t *testing.T) {
	ctx := newCtx(t, 3)
	// Node 0 is heavily aged (deep-discharged, never recharged).
	drain(t, ctx.Nodes[0], 0.15)
	p := build(t, "baat", nil)
	got, err := p.PlaceVM(ctx, newVM(t, "new", workload.SoftwareTesting))
	if err != nil {
		t.Fatal(err)
	}
	if got == ctx.Nodes[0] {
		t.Error("BAAT placed a heavy workload on the most-aged battery")
	}
}

func TestBAATHAvoidsDeepDischargedNode(t *testing.T) {
	ctx := newCtx(t, 3)
	// Node a has spent real time below 40 % SoC; its DDT is visible.
	drain(t, ctx.Nodes[0], 0.2)
	p := build(t, "baat-h", nil)
	got, err := p.PlaceVM(ctx, newVM(t, "new", workload.WordCount))
	if err != nil {
		t.Fatal(err)
	}
	if got == ctx.Nodes[0] {
		t.Error("BAAT-h placed on the deep-discharged node")
	}
}

func TestMigrateVM(t *testing.T) {
	nodes := newFleet(t, 2)
	v := newVM(t, "v1", workload.KMeans)
	if err := nodes[0].Server().Attach(v); err != nil {
		t.Fatal(err)
	}
	if err := MigrateVM(nodes[0], nodes[1], "v1", time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(nodes[0].Server().VMs()) != 0 {
		t.Error("VM still on source")
	}
	if len(nodes[1].Server().VMs()) != 1 {
		t.Error("VM not on destination")
	}
	if v.State() != vm.Migrating {
		t.Errorf("VM state = %v, want migrating", v.State())
	}
}

func TestMigrateVMErrors(t *testing.T) {
	nodes := newFleet(t, 2)
	v := newVM(t, "v1", workload.SoftwareTesting)
	if err := nodes[0].Server().Attach(v); err != nil {
		t.Fatal(err)
	}
	if err := MigrateVM(nil, nodes[1], "v1", time.Minute); err == nil {
		t.Error("nil source accepted")
	}
	if err := MigrateVM(nodes[0], nodes[0], "v1", time.Minute); err == nil {
		t.Error("self-migration accepted")
	}
	if err := MigrateVM(nodes[0], nodes[1], "missing", time.Minute); err == nil {
		t.Error("missing VM accepted")
	}
	// Destination full: must roll back.
	for j := 0; j < 2; j++ {
		if err := nodes[1].Server().Attach(newVM(t, fmt.Sprintf("blocker-%d", j), workload.SoftwareTesting)); err != nil {
			t.Fatal(err)
		}
	}
	if err := MigrateVM(nodes[0], nodes[1], "v1", time.Minute); err == nil {
		t.Error("migration to full node accepted")
	}
	if len(nodes[0].Server().VMs()) != 1 {
		t.Error("rollback failed: VM lost from source")
	}
	if v.State() == vm.Migrating {
		t.Error("rollback left VM migrating")
	}
}

func TestSlowdownTriggersOnLowSoCHighDR(t *testing.T) {
	nodes := newFleet(t, 1)
	n := nodes[0]
	// Drive the battery deep and hot: DDT and DR accumulate.
	v := newVM(t, "v", workload.SoftwareTesting)
	if err := n.Server().Attach(v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8*60 && n.Battery().SoC() > 0.2; i++ {
		if err := n.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultSlowdownConfig()
	if !slowdownNeeded(n, cfg) {
		t.Fatalf("slowdown not triggered at SoC %v with DDT %v", n.Battery().SoC(), n.Metrics().DDT)
	}
	if recovered(n, cfg) {
		t.Error("deeply discharged node reported recovered")
	}
}

func TestSlowdownNotTriggeredWhenHealthy(t *testing.T) {
	nodes := newFleet(t, 1)
	if slowdownNeeded(nodes[0], DefaultSlowdownConfig()) {
		t.Error("slowdown triggered on a full battery")
	}
	if !recovered(nodes[0], DefaultSlowdownConfig()) {
		t.Error("full battery not recovered")
	}
}

func TestBAATSControlCapsFrequency(t *testing.T) {
	ctx := newCtx(t, 1)
	n := ctx.Nodes[0]
	drain(t, n, 0.2)
	p := build(t, "baat-s", nil)
	before := n.Server().FrequencyIndex()
	if err := p.Control(ctx); err != nil {
		t.Fatal(err)
	}
	if n.Server().FrequencyIndex() >= before {
		t.Error("BAAT-s did not step frequency down on an at-risk battery")
	}
}

func TestBAATSControlRestoresFrequency(t *testing.T) {
	ctx := newCtx(t, 1)
	n := ctx.Nodes[0]
	if err := n.Server().SetFrequencyIndex(0); err != nil {
		t.Fatal(err)
	}
	p := build(t, "baat-s", nil)
	if err := p.Control(ctx); err != nil {
		t.Fatal(err)
	}
	if n.Server().FrequencyIndex() != 1 {
		t.Errorf("frequency index = %d, want 1 (one step back up)", n.Server().FrequencyIndex())
	}
}

func TestEBuffControlRestoresFullSpeed(t *testing.T) {
	ctx := newCtx(t, 2)
	if err := ctx.Nodes[0].Server().SetFrequencyIndex(0); err != nil {
		t.Fatal(err)
	}
	p := build(t, "ebuff", nil)
	if err := p.Control(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Nodes[0].Server().Frequency() != 1.0 {
		t.Error("e-Buff left a server throttled")
	}
}

func TestBAATControlMigratesBeforeThrottling(t *testing.T) {
	ctx := newCtx(t, 2)
	src := ctx.Nodes[0]
	drain(t, src, 0.2)
	v := newVM(t, "v", workload.KMeans)
	if err := src.Server().Attach(v); err != nil {
		t.Fatal(err)
	}
	p := build(t, "baat", nil)
	if err := p.Control(ctx); err != nil {
		t.Fatal(err)
	}
	if len(ctx.Nodes[1].Server().VMs()) != 1 {
		t.Fatal("BAAT did not migrate the VM off the at-risk node")
	}
	if src.Server().FrequencyIndex() != len(src.Server().Spec().FreqLevels)-1 {
		t.Error("BAAT throttled despite successful migration")
	}
}

func TestBAATControlThrottlesWhenMigrationBlocked(t *testing.T) {
	ctx := newCtx(t, 2)
	src := ctx.Nodes[0]
	drain(t, src, 0.2)
	// Block the only other node with full-size VMs.
	for j := 0; j < 2; j++ {
		if err := ctx.Nodes[1].Server().Attach(newVM(t, fmt.Sprintf("blocker-%d", j), workload.SoftwareTesting)); err != nil {
			t.Fatal(err)
		}
	}
	v := newVM(t, "v", workload.SoftwareTesting)
	if err := src.Server().Attach(v); err != nil {
		t.Fatal(err)
	}
	p := build(t, "baat", nil)
	before := src.Server().FrequencyIndex()
	if err := p.Control(ctx); err != nil {
		t.Fatal(err)
	}
	if len(src.Server().VMs()) != 1 {
		t.Fatal("VM moved despite blocked destination")
	}
	if src.Server().FrequencyIndex() >= before {
		t.Error("BAAT did not fall back to DVFS when migration was blocked")
	}
}

func TestBAATHControlMigratesOffHighNATNode(t *testing.T) {
	ctx := newCtx(t, 3)
	src := ctx.Nodes[0]
	drain(t, src, 0.4) // builds NAT well above the untouched fleet
	v := newVM(t, "v", workload.WordCount)
	if err := src.Server().Attach(v); err != nil {
		t.Fatal(err)
	}
	p := build(t, "baat-h", nil)
	if err := p.Control(ctx); err != nil {
		t.Fatal(err)
	}
	if len(src.Server().VMs()) != 0 {
		t.Error("BAAT-h did not migrate off the fast-aging node")
	}
}

func TestBAATHControlNoopOnBalancedFleet(t *testing.T) {
	ctx := newCtx(t, 3)
	p := build(t, "baat-h", nil)
	if err := p.Control(ctx); err != nil {
		t.Fatal(err)
	}
	// Single-node fleets are a no-op too.
	single := &Context{Nodes: ctx.Nodes[:1], Rng: ctx.Rng}
	if err := p.Control(single); err != nil {
		t.Fatal(err)
	}
}

func TestPlannedAgingAdjustsFloorsAndTrigger(t *testing.T) {
	ctx := newCtx(t, 2)
	// 90 days (3 months) to DC end-of-life.
	p := build(t, "baat", map[string]string{"planned-months": "3"})
	if err := p.Control(ctx); err != nil {
		t.Fatal(err)
	}
	// 7000 Ah over 90 cycles = 77.8 Ah/cycle, clamped to 0.9 DoD: the
	// plan is aggressive, so floors drop to the protective minimum.
	for _, n := range ctx.Nodes {
		if got := n.SoCFloor(); got > 0.11 {
			t.Errorf("node %s floor = %v, want aggressive (≤0.11)", n.ID(), got)
		}
	}
	// A long service life (3000 days) spends the budget slowly:
	// conservative plan.
	p2 := build(t, "baat", map[string]string{"planned-months": "100"})
	if err := p2.Control(ctx); err != nil {
		t.Fatal(err)
	}
	for _, n := range ctx.Nodes {
		if got := n.SoCFloor(); got < 0.5 {
			t.Errorf("node %s floor = %v, want conservative (≥0.5)", n.ID(), got)
		}
	}
}

func TestPlannedTriggerPastEndOfLife(t *testing.T) {
	ctx := newCtx(t, 1)
	ctx.Clock = 400 * 24 * time.Hour
	p := build(t, "baat", map[string]string{"planned-months": "3"})
	// Past the planned end of life the policy must not panic or divide by
	// zero; it keeps a one-day headroom.
	if err := p.Control(ctx); err != nil {
		t.Fatal(err)
	}
}
