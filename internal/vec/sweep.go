package vec

// SweepPart names the parts of a DirectionSweep, for an observer that
// times them.
type SweepPart uint8

const (
	// SweepUpdate is p ← src + beta·p over the first lead elements,
	// before the first granule: the update no row kernel trip carries.
	SweepUpdate SweepPart = iota
	// SweepProduct is the rows of ap = A·p of one granule, with the
	// update the kernel carries lead elements ahead of them.
	SweepProduct
	// SweepDots is the leaf partials of (p, ap) over one granule.
	SweepDots
)

// SweepKernel computes rows [lo, hi) of dst = A·x — writing dst[lo:hi]
// only, each row exactly as the whole product computes it, so any cut
// of the rows into ranges gives that product bit for bit — after
// completing what it owes of a pending update x ← src + beta·x (src nil:
// none): Carry(lo, hi, lead, src, beta, x), applied before any row
// reads what it changes, x being final up to where the calls for the
// rows before lo left it. lead is at least the largest col − row the
// rows read. sparse.DIA's MulRows is one.
type SweepKernel func(lo, hi int, dst, x, src Vector, beta float64, lead int)

// sweepTrip is the rows of the wide trip of the DIA row kernel, which
// updates one trip's worth of x a lead ahead of its rows.
const sweepTrip = 32

// owed returns the elements [from, to) of x that the rows [lo, hi)
// of a SweepKernel call owe the update: lo+lead to hi+lead, each rounded
// up to a multiple of sweepTrip, within [0, n). Consecutive row ranges
// tile the elements, and every bound is a whole number of trips, so the
// update runs in the same Xpay pieces — the same body for each element —
// however the rows are cut.
func owed(lo, hi, lead, n int) (from, to int) {
	up := func(j int) int { return (j + sweepTrip - 1) / sweepTrip * sweepTrip }
	return min(n, up(lo+lead)), min(n, up(hi+lead))
}

// Carry applies the update a SweepKernel call over rows [lo, hi) owes,
// x[j] ← src[j] + beta·x[j] with Xpay's bits over [from, to) of
// owed; nothing when src is nil. It is the update a row kernel that
// does not carry it itself runs before its rows.
func Carry(lo, hi, lead int, src Vector, beta float64, x Vector) {
	if from, to := owed(lo, hi, lead, len(x)); src != nil && from < to {
		Xpay(src[from:to], beta, x[from:to])
	}
}

// sweepBlocks is the granule of DirectionSweep in BlockLen blocks: what
// is multiplied, with the update its rows carry, and dotted before the
// sweep moves on. Small keeps the window the sweep works in — p over the
// lead either side of the granule, and a granule each of src, ap and the
// operator's diagonals — a fraction of L2; large amortizes the row
// kernel's per-call bookkeeping. Measured with BenchmarkCGIteration at
// granules of 1, 2, 4, 8 and 16 blocks: out of cache (Poisson3D(64),
// n = 262144) all five read within the run-to-run spread of each other
// (fastest of four 1103-1162 us/iter, whole-vector 1226-1324); in L2
// (Poisson3D(32), n = 32768) one block read 2-5 % slower than four or
// sixteen. Four is the smallest that does not pay for its calls. With
// the update carried by the row kernel the five again read within each
// other's spread (medians of four: 918-1017 us/iter on Poisson3D(64),
// 78-86 on Poisson3D(32), -cpu 1 on a shared 2-core x86-64 host).
const sweepBlocks = 4

// DirectionSweep is everything a CG iteration does between its two
// inner products, in one pass over memory:
//
//	p ← src + beta·p   (skipped when src is nil: nothing is pending)
//	ap ← A·p           (rows computes a range of its rows)
//	return (p, ap)
//
// bitwise what Xpay, the whole product and Dot return one after the
// other. The update runs lead elements ahead of the product — lead being
// reach, the largest col − row of any entry, rounded up to a row-kernel
// trip, so rows [lo, hi) read nothing at or past hi+lead: the sweep
// applies it to p[:lead] itself, and from there the kernel carries it,
// each call finishing p[lo+lead : hi+lead] (Carry) before it multiplies
// rows [lo, hi) (SweepKernel). It walks the vectors granule by granule, and
// dots each granule's rows once they are computed, so each granule of p
// is written, multiplied and dotted while it is in cache, and src, p,
// ap and the operator cross memory once. A reach of len(p) or more is
// the update, then the product, in order.
//
// The equality needs nothing new: the update is elementwise, a row's
// sum does not depend on how rows are cut into ranges (the RowKernel
// contract the pooled products rest on), and the inner product is the
// canonical tree — one dotLeaf per BlockLen block into part, then
// combineTree, exactly as the pooled Dot replays it. part is the
// caller's slab of at least ⌈len(p)/BlockLen⌉ cells.
//
// lap, when non-nil, is called after each part so the caller can charge
// a clock reading to it; nil reads no clock.
func DirectionSweep(rows SweepKernel, reach int, src Vector, beta float64, p, ap, part Vector, lap func(SweepPart)) float64 {
	return sweepGranules(sweepBlocks*BlockLen, rows, reach, src, beta, p, ap, part, lap)
}

// sweepGranules is DirectionSweep at a granule of g elements, a multiple
// of BlockLen.
func sweepGranules(g int, rows SweepKernel, reach int, src Vector, beta float64, p, ap, part Vector, lap func(SweepPart)) float64 {
	n := len(p)
	mustSameLen2(n, len(ap))
	if n == 0 {
		return 0
	}
	part = part[:nblocks(n)]
	lead := min(n, (max(reach, 0)+sweepTrip-1)/sweepTrip*sweepTrip)
	if src != nil {
		mustSameLen2(n, len(src))
		if lead > 0 {
			Xpay(src[:lead], beta, p[:lead])
			if lap != nil {
				lap(SweepUpdate)
			}
		}
	}
	for lo := 0; lo < n; {
		hi := min(n, lo+g)
		rows(lo, hi, ap, p, src, beta, lead)
		if lap != nil {
			lap(SweepProduct)
		}
		for b0 := lo; b0 < hi; b0 += BlockLen {
			b1 := min(hi, b0+BlockLen)
			part[b0/BlockLen] = dotLeaf(p[b0:b1], ap[b0:b1])
		}
		if lap != nil {
			lap(SweepDots)
		}
		lo = hi
	}
	return combineTree(part)
}
