package core

import (
	"testing"
	"time"

	"github.com/green-dc/baat/internal/node"
	"github.com/green-dc/baat/internal/signal"
	"github.com/green-dc/baat/internal/workload"
)

// newShaveNode builds a node hosting one heavy VM, optionally on utility
// backup, with its battery drained to about 0.8 SoC — below the hold level,
// so any discharge a held battery shows is the policy's fault.
func newShaveNode(t *testing.T, id string, backup bool) *node.Node {
	t.Helper()
	cfg := node.DefaultConfig()
	cfg.UtilityBackup = backup
	n, err := node.New(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, n, 0.8)
	if err := n.Server().Attach(newVM(t, id+"-load", workload.SoftwareTesting)); err != nil {
		t.Fatal(err)
	}
	return n
}

// shaveCtx is a policy context at the given time of day on day three, with
// the engine's TOU tariff (peak 17:00–21:00).
func shaveCtx(nodes []*node.Node, tod time.Duration) *Context {
	return &Context{
		Nodes:   nodes,
		Clock:   2*24*time.Hour + tod,
		Signals: signal.Signals{Price: signal.DefaultTOUTariff()},
	}
}

// stepDark runs the node for the given number of one-minute ticks with no
// solar at all.
func stepDark(t *testing.T, n *node.Node, ticks int) {
	t.Helper()
	for i := 0; i < ticks; i++ {
		if err := n.Step(time.Minute, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPeakShaveHoldsOffPeak(t *testing.T) {
	n := newShaveNode(t, "held", true)
	p := build(t, "peak-shave", nil)
	for _, tod := range []time.Duration{0, 9 * time.Hour, 16*time.Hour + 59*time.Minute, 21 * time.Hour} {
		if err := p.Control(shaveCtx([]*node.Node{n}, tod)); err != nil {
			t.Fatal(err)
		}
		if got := n.SoCFloor(); got != PeakShaveHoldSoC {
			t.Errorf("%v: floor %v, want the hold level %v", tod, got, PeakShaveHoldSoC)
		}
	}
	soc, util := n.SoC(), n.Stats().UtilityEnergy
	stepDark(t, n, 60)
	// A resting pack only self-discharges; an hour of this load would
	// take far more than 1e-3 of SoC.
	if n.SoC() < soc-1e-3 {
		t.Errorf("held battery discharged off-peak: SoC %v -> %v", soc, n.SoC())
	}
	if n.Stats().UtilityEnergy <= util {
		t.Error("off-peak load not carried by utility power")
	}
	if n.Stats().Downtime != 0 {
		t.Errorf("holding the battery caused %v of downtime", n.Stats().Downtime)
	}
}

func TestPeakShaveDischargesToFloorDuringPeak(t *testing.T) {
	n := newShaveNode(t, "shaver", true)
	p := build(t, "peak-shave", map[string]string{"floor": "0.6"})
	if err := p.Control(shaveCtx([]*node.Node{n}, 18*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := n.SoCFloor(); got != 0.6 {
		t.Fatalf("peak floor %v, want 0.6", got)
	}
	soc := n.SoC()
	stepDark(t, n, 4*60) // a long, heavy peak
	if n.SoC() >= soc {
		t.Error("battery did not discharge during the peak")
	}
	if n.SoC() < 0.55 {
		t.Errorf("SoC %v fell well below the 0.6 floor", n.SoC())
	}
	if n.Stats().UtilityEnergy <= 0 {
		t.Error("utility did not take over once the battery reached its floor")
	}
}

func TestPeakShaveNeverHoldsWithoutPrice(t *testing.T) {
	n := newShaveNode(t, "unpriced", true)
	p := build(t, "peak-shave", nil)
	ctx := shaveCtx([]*node.Node{n}, 10*time.Hour)
	ctx.Signals.Price = nil
	if err := p.Control(ctx); err != nil {
		t.Fatal(err)
	}
	if got := n.SoCFloor(); got != 0.40 {
		t.Errorf("floor %v without a tariff, want the default 0.40", got)
	}
	soc := n.SoC()
	stepDark(t, n, 30)
	if n.SoC() >= soc {
		t.Error("battery held without a tariff")
	}
}

func TestPeakShaveNeverHoldsWithoutUtility(t *testing.T) {
	bare := newShaveNode(t, "bare", false)
	brownout := newShaveNode(t, "brownout", true)
	brownout.SetUtilityAvailable(false)
	held := newShaveNode(t, "held", true)
	p := build(t, "peak-shave", map[string]string{"floor": "0.3"})
	if err := p.Control(shaveCtx([]*node.Node{bare, brownout, held}, 10*time.Hour)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*node.Node{bare, brownout} {
		if got := n.SoCFloor(); got != 0.3 {
			t.Errorf("%s: floor %v off-peak, want the configured 0.3", n.ID(), got)
		}
		stepDark(t, n, 30)
		if n.Stats().Downtime != 0 {
			t.Errorf("%s: %v of downtime with a usable battery", n.ID(), n.Stats().Downtime)
		}
	}
	if got := held.SoCFloor(); got != PeakShaveHoldSoC {
		t.Errorf("node with utility: floor %v, want the hold level", got)
	}
}

func TestPeakShaveFollowsTariffPeak(t *testing.T) {
	n := newShaveNode(t, "clock", true)
	p := build(t, "peak-shave", nil)
	for _, tt := range []struct {
		tod  time.Duration
		peak bool
	}{
		{3 * time.Hour, false},
		{9 * time.Hour, false},
		{17 * time.Hour, true},
		{18 * time.Hour, true},
		{20*time.Hour + 59*time.Minute, true},
		{21 * time.Hour, false},
		{27 * time.Hour, false}, // wraps to 03:00
		{42 * time.Hour, true},  // wraps to 18:00
	} {
		if err := p.Control(shaveCtx([]*node.Node{n}, tt.tod)); err != nil {
			t.Fatal(err)
		}
		want := PeakShaveHoldSoC
		if tt.peak {
			want = 0.40
		}
		if got := n.SoCFloor(); got != want {
			t.Errorf("%v: floor %v, want %v (peak %v)", tt.tod, got, want, tt.peak)
		}
	}
	// The window comes from the signal, not from a built-in clock: a
	// morning peak is shaved in the morning and held in the evening.
	morning := signal.TOUTariff{OffPeak: 0.10, Peak: 0.30, PeakStart: 7 * time.Hour, PeakEnd: 9 * time.Hour}
	for tod, want := range map[time.Duration]float64{8 * time.Hour: 0.40, 18 * time.Hour: PeakShaveHoldSoC} {
		ctx := shaveCtx([]*node.Node{n}, tod)
		ctx.Signals.Price = morning
		if err := p.Control(ctx); err != nil {
			t.Fatal(err)
		}
		if got := n.SoCFloor(); got != want {
			t.Errorf("morning tariff at %v: floor %v, want %v", tod, got, want)
		}
	}
}

func TestPeakShaveFloorOption(t *testing.T) {
	for _, bad := range []string{"-0.1", "0.995", "1", "half"} {
		if _, err := Build(PolicySpec{Name: "peak-shave", Options: map[string]string{"floor": bad}}); err == nil {
			t.Errorf("floor=%s accepted", bad)
		}
	}
	if _, err := Build(PolicySpec{Name: "peak-shave", Options: map[string]string{"trigger": "0.5"}}); err == nil {
		t.Error("unknown option accepted")
	}
}

func TestPeakShaveControlAllocFree(t *testing.T) {
	nodes := newFleet(t, 8)
	for i, n := range nodes {
		if i%2 == 0 {
			n.SetUtilityAvailable(false)
		}
	}
	p := build(t, "peak-shave", nil)
	for _, tod := range []time.Duration{10 * time.Hour, 18 * time.Hour} {
		ctx := shaveCtx(nodes, tod)
		if allocs := testing.AllocsPerRun(50, func() {
			if err := p.Control(ctx); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%v: Control allocated %v times per pass", tod, allocs)
		}
	}
}
