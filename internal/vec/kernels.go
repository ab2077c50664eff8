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
// stream. Bit d of scalar says that every cell diagonal d has on these
// rows holds the same bits; the kernel may multiply by that value
// without reading the rest, which changes no bit of the sum.
//
// When src is not nil, x carries a pending update x ← src + beta·x, and
// lead is at least the largest offset: the call first applies what rows
// [lo, lo+len(out)) owe of it (Carry), so that every x a row reads is
// final. The wide trip over rows i..i+31 updates the next thirty-two of
// those elements before it loads any x; what no such trip covers — past
// the last whole trip, or crossing the end of x — goes through Xpay
// before the call.
//
// It reports false, nothing touched, when this process runs the portable
// bodies and the caller must run its own. A diagonal or an update that
// would index outside slab, x or src panics here, before the call.
func DIARows(out, slab []float64, base []int, x []float64, lo int, offs []int, scalar uint64, src []float64, beta float64, lead int) bool {
	if !useAVX2 {
		return false
	}
	rows := len(out)
	base = base[:len(offs)]
	for d, k := range offs {
		_ = slab[base[d]+lo : base[d]+lo+rows]
		_ = x[lo+k : lo+k+rows]
	}
	ahead, stop := 0, rows // no trip updates
	if from, to := owed(lo, lo+rows, lead, len(x)); src != nil && from < to {
		_ = src[from:to]
		trips := min(rows, to-from) / sweepTrip
		if at := from + sweepTrip*trips; at < to {
			Xpay(src[at:to], beta, x[at:to])
		}
		ahead, stop = from-lo, rows-sweepTrip*trips
	}
	diaRowsAVX2(out, slab, base, x, lo, offs, scalar, src, beta, ahead, stop)
	return true
}
