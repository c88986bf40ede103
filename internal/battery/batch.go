package battery

// Columnar batch kernels over the fleet's per-tier slabs. A warehouse
// fleet stores its battery models in contiguous per-chemistry slices
// ([]Pack, []Linear); these kernels advance down such a column in one
// tight loop with direct field access — no interface dispatch, no bounds
// checks beyond the slice header, no allocation. The simulator's SoC
// ordering reads the whole fleet's state of charge twice per control pass,
// which at 65536+ nodes makes the difference between a dense column sweep
// and 65536 virtual calls measurable.
//
// Every kernel requires len(dst) == len(column); they panic on mismatch
// like the element-wise built-ins do, because a silent partial fill would
// corrupt the caller's column.

// PackSoCs fills dst with the state of charge of each pack in the column.
// It serves both electrochemical chemistries (lead-acid and LFP share the
// Pack representation; their chemistry constants — OCV curve, thermal
// envelope — are hoisted into each Pack at construction).
func PackSoCs(packs []Pack, dst []float64) {
	if len(dst) != len(packs) {
		panic("battery: PackSoCs column length mismatch")
	}
	for i := range packs {
		dst[i] = packs[i].soc
	}
}

// LinearSoCs fills dst with the state of charge of each linear model in
// the column.
func LinearSoCs(lins []Linear, dst []float64) {
	if len(dst) != len(lins) {
		panic("battery: LinearSoCs column length mismatch")
	}
	for i := range lins {
		dst[i] = lins[i].soc
	}
}
