package battery

import (
	"testing"
)

func packColumn(t *testing.T, kind Kind, n int) []Pack {
	t.Helper()
	spec, err := DefaultSpecFor(kind)
	if err != nil {
		t.Fatalf("spec for %q: %v", kind, err)
	}
	packs := make([]Pack, n)
	for i := range packs {
		if err := NewInto(&packs[i], spec, WithInitialSoC(float64(i)/float64(n))); err != nil {
			t.Fatalf("pack %d: %v", i, err)
		}
	}
	return packs
}

func linearColumn(t *testing.T, n int) []Linear {
	t.Helper()
	spec, err := DefaultSpecFor(KindLinear)
	if err != nil {
		t.Fatalf("linear spec: %v", err)
	}
	lins := make([]Linear, n)
	for i := range lins {
		if err := NewLinearInto(&lins[i], spec, WithInitialSoC(float64(i)/float64(n))); err != nil {
			t.Fatalf("linear %d: %v", i, err)
		}
	}
	return lins
}

// TestBatchKernelsMatchPerModelCalls pins the columnar kernels to the
// per-model accessors they replace: identical values, element by element.
func TestBatchKernelsMatchPerModelCalls(t *testing.T) {
	const n = 257
	for _, kind := range []Kind{KindLeadAcid, KindLFP} {
		packs := packColumn(t, kind, n)
		soc := make([]float64, n)
		PackSoCs(packs, soc)
		for i := range packs {
			if soc[i] != packs[i].SoC() {
				t.Fatalf("%s: PackSoCs[%d] = %v, want %v", kind, i, soc[i], packs[i].SoC())
			}
		}
	}
	lins := linearColumn(t, n)
	soc := make([]float64, n)
	LinearSoCs(lins, soc)
	for i := range lins {
		if soc[i] != lins[i].SoC() {
			t.Fatalf("linear: LinearSoCs[%d] = %v, want %v", i, soc[i], lins[i].SoC())
		}
	}
}

// TestBatchKernelsLengthMismatchPanics pins the documented contract: a
// destination column of the wrong length panics instead of silently
// partially filling.
func TestBatchKernelsLengthMismatchPanics(t *testing.T) {
	packs := packColumn(t, KindLeadAcid, 4)
	lins := linearColumn(t, 4)
	short := make([]float64, 3)
	for name, fn := range map[string]func(){
		"PackSoCs":   func() { PackSoCs(packs, short) },
		"LinearSoCs": func() { LinearSoCs(lins, short) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// TestBatchKernelsAllocFree pins every per-chemistry kernel at zero
// allocations per sweep — the property the fleet's columnar SoC snapshot
// relies on to keep the engine's steady-state tick path alloc-free.
func TestBatchKernelsAllocFree(t *testing.T) {
	const n = 4096
	dst := make([]float64, n)
	for _, kind := range []Kind{KindLeadAcid, KindLFP} {
		packs := packColumn(t, kind, n)
		if allocs := testing.AllocsPerRun(10, func() { PackSoCs(packs, dst) }); allocs != 0 {
			t.Fatalf("PackSoCs/%s allocated %v times per sweep, want 0", kind, allocs)
		}
	}
	lins := linearColumn(t, n)
	if allocs := testing.AllocsPerRun(10, func() { LinearSoCs(lins, dst) }); allocs != 0 {
		t.Fatalf("LinearSoCs allocated %v times per sweep, want 0", allocs)
	}
}
