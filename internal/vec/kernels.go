package vec

// asmChunk is the most elements one call hands an assembly body.
// Assembly cannot be preempted, so a whole-vector kernel walks its
// operands in pieces a stop-the-world waits a few microseconds on at
// most (the reductions already call their leaf per BlockLen).
const asmChunk = 16 << 10

// Kernels names the leaf-kernel bodies this process runs: "avx2" (the
// assembly in kernels_amd64.s) or "portable" (the Go bodies — any other
// platform, a CPU or OS without AVX2, or a -race build). Both compute
// the same bits; the name is for reading a timing, not a result.
func Kernels() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// DIARows is the assembly row kernel of sparse.DIA: with row i of
// diagonal d at slab[base[d]+i] and its operand at x[i+offs[d]], it sets
// out[i] = Σ_d slab[base[d]+lo+i] * x[lo+offs[d]+i] — from +0, one add
// per diagonal in ascending d, any number of diagonals in one pass — and
// reports true. Bases need not be distinct or ordered, and may be
// negative: a symmetric band points a subdiagonal into its mirror's
// stream. It reports false, out untouched, when this process runs the
// portable bodies and the caller must run its own. A diagonal that would
// index outside slab or x panics here, before the call.
func DIARows(out, slab []float64, base []int, x []float64, lo int, offs []int) bool {
	if !useAVX2 {
		return false
	}
	rows := len(out)
	base = base[:len(offs)]
	for d, k := range offs {
		_ = slab[base[d]+lo : base[d]+lo+rows]
		_ = x[lo+k : lo+k+rows]
	}
	diaRowsAVX2(out, slab, base, x, lo, offs)
	return true
}
