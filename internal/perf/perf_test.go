package perf

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/green-dc/baat/internal/core"
)

func baseReport() Report {
	return Report{Entries: []Entry{
		{Name: "pinned_path", NsPerOp: 1000, AllocsPerOp: 3, BytesPerOp: 128, Pinned: true},
		{Name: "sweep", NsPerOp: 50000, AllocsPerOp: 10000, BytesPerOp: 1 << 20},
	}}
}

func TestCompareClean(t *testing.T) {
	if regs := Compare(baseReport(), baseReport(), DefaultOptions()); len(regs) != 0 {
		t.Fatalf("identical reports regressed: %v", regs)
	}
}

func TestCompareTimeSlack(t *testing.T) {
	cur := baseReport()
	cur.Entries[0].NsPerOp = 1140 // +14%: inside the 15% slack
	if regs := Compare(baseReport(), cur, DefaultOptions()); len(regs) != 0 {
		t.Fatalf("+14%% time flagged: %v", regs)
	}
	cur.Entries[0].NsPerOp = 1200 // +20%: out
	regs := Compare(baseReport(), cur, DefaultOptions())
	if len(regs) != 1 || !strings.Contains(regs[0], "time/op") {
		t.Fatalf("+20%% time not flagged correctly: %v", regs)
	}
}

func TestComparePinnedAllocsStrict(t *testing.T) {
	cur := baseReport()
	cur.Entries[0].AllocsPerOp = 4 // one alloc over on a pinned entry
	regs := Compare(baseReport(), cur, DefaultOptions())
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("pinned alloc growth not flagged: %v", regs)
	}
}

func TestCompareUnpinnedAllocSlack(t *testing.T) {
	cur := baseReport()
	cur.Entries[1].AllocsPerOp = 10050 // +0.5%: inside the 1% slack
	if regs := Compare(baseReport(), cur, DefaultOptions()); len(regs) != 0 {
		t.Fatalf("+0.5%% unpinned allocs flagged: %v", regs)
	}
	cur.Entries[1].AllocsPerOp = 10200 // +2%: out
	if regs := Compare(baseReport(), cur, DefaultOptions()); len(regs) != 1 {
		t.Fatalf("+2%% unpinned allocs not flagged: %v", regs)
	}
}

func TestCompareMissingEntry(t *testing.T) {
	cur := baseReport()
	cur.Entries = cur.Entries[:1]
	regs := Compare(baseReport(), cur, DefaultOptions())
	if len(regs) != 1 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("dropped benchmark not flagged: %v", regs)
	}
	// New entries in the current run are not regressions.
	grown := baseReport()
	grown.Entries = append(grown.Entries, Entry{Name: "new_bench", NsPerOp: 1})
	if regs := Compare(baseReport(), grown, DefaultOptions()); len(regs) != 0 {
		t.Fatalf("new benchmark flagged: %v", regs)
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	data, err := baseReport().WriteJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 {
		t.Fatalf("round trip lost entries: %+v", got)
	}
	e, ok := got.Lookup("pinned_path")
	if !ok || !e.Pinned || e.AllocsPerOp != 3 {
		t.Fatalf("round trip mangled entry: %+v", e)
	}
}

// TestBaselineParses keeps the committed baseline loadable: a hand-edited
// or merge-damaged BENCH_baseline.json should fail here, not in check.sh.
func TestBaselineParses(t *testing.T) {
	r, err := ReadReport("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) == 0 {
		t.Fatal("committed baseline has no entries")
	}
	pinned := 0
	for _, e := range r.Entries {
		if e.Name == "" {
			t.Fatalf("baseline entry with empty name: %+v", e)
		}
		if e.Pinned {
			pinned++
		}
	}
	if pinned == 0 {
		t.Fatal("baseline pins no hot-path entries; the alloc gate is inert")
	}
	// The warehouse-scale stepping entry is the scaling axis's anchor: it
	// must stay in the baseline, gated, with its throughput figure.
	e, ok := r.Lookup("fleet_step/nodes=65536/workers=1")
	if !ok {
		t.Fatal("baseline lost the warehouse-scale fleet_step entry")
	}
	if e.NodeStepsPerSec <= 0 {
		t.Fatalf("warehouse entry carries no node-steps/s figure: %+v", e)
	}
	// Every battery model tier must stay gated: the small fleet-stepping
	// entry pinned per tier, the warehouse entry for the tier built for
	// that scale, and the single-step microbenchmark per tier.
	for _, name := range []string{
		"fleet_step/nodes=64/workers=1/model=linear",
		"fleet_step/nodes=64/workers=1/model=lfp",
		"fleet_step/nodes=65536/workers=1/model=linear",
		"battery_step/model=linear",
		"battery_step/model=lfp",
	} {
		e, ok := r.Lookup(name)
		if !ok {
			t.Errorf("baseline lost the per-tier entry %s", name)
			continue
		}
		if !e.Pinned {
			t.Errorf("per-tier entry %s is not pinned; the tier's alloc gate is inert", name)
		}
	}
	// Every registered policy's control pass is gated as its own stage.
	for _, info := range core.Registered() {
		name := fmt.Sprintf("policy_control/policy=%s/nodes=%d", info.Name, suitePolicyNodes)
		if e, ok := r.Lookup(name); !ok || !e.Pinned {
			t.Errorf("baseline lacks a pinned %s entry", name)
		}
	}
}

func TestDeltasReportEveryBaselineEntry(t *testing.T) {
	cur := baseReport()
	cur.Entries[0].NsPerOp = 1300  // +30%: trips the time gate
	cur.Entries[0].AllocsPerOp = 4 // pinned: trips the alloc gate
	cur.Entries = cur.Entries[:1]  // "sweep" dropped: missing
	ds := Deltas(baseReport(), cur, DefaultOptions())
	if len(ds) != 2 {
		t.Fatalf("got %d deltas, want one per baseline entry (2)", len(ds))
	}
	if d := ds[0]; !d.TimeRegressed || !d.AllocRegressed || d.Missing {
		t.Fatalf("pinned_path delta gates wrong: %+v", d)
	}
	if got := ds[0].TimePct(); got < 29.9 || got > 30.1 {
		t.Fatalf("TimePct() = %v, want ~+30", got)
	}
	if d := ds[1]; !d.Missing || d.TimeRegressed || d.AllocRegressed {
		t.Fatalf("sweep delta should be missing-only: %+v", d)
	}
}

func TestFormatDeltaTable(t *testing.T) {
	cur := baseReport()
	cur.Entries[0].NsPerOp = 1300
	cur.Entries[0].AllocsPerOp = 4
	cur.Entries = cur.Entries[:1]
	table := FormatDeltaTable(Deltas(baseReport(), cur, DefaultOptions()))
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != 3 { // header + one row per baseline entry
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), table)
	}
	for _, want := range []string{"entry", "Δ%", "Δallocs", "gate"} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("header lacks %q:\n%s", want, table)
		}
	}
	for _, want := range []string{"pinned_path", "TIME+ALLOCS", "+30.0%", "+1"} {
		if !strings.Contains(lines[1], want) {
			t.Fatalf("pinned_path row lacks %q:\n%s", want, table)
		}
	}
	for _, want := range []string{"sweep", "MISSING"} {
		if !strings.Contains(lines[2], want) {
			t.Fatalf("sweep row lacks %q:\n%s", want, table)
		}
	}
}
