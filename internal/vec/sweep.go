package vec

// SweepPart names the three things DirectionSweep does to a granule, for
// an observer that times them.
type SweepPart uint8

const (
	// SweepUpdate is p ← src + beta·p over the granules the next product
	// reads.
	SweepUpdate SweepPart = iota
	// SweepProduct is the rows of ap = A·p of one granule.
	SweepProduct
	// SweepDots is the leaf partials of (p, ap) over one granule.
	SweepDots
)

// sweepBlocks is the granule of DirectionSweep in BlockLen blocks: what
// is updated, multiplied and dotted before the sweep moves on. Small
// keeps the window the sweep works in — p over the reach either side of
// the granule, and a granule each of src, ap and the operator's
// diagonals — a fraction of L2; large amortizes the row kernel's
// per-call bookkeeping. Measured with BenchmarkCGIteration at granules of
// 1, 2, 4, 8 and 16 blocks: out of cache (Poisson3D(64), n = 262144) all
// five read within the run-to-run spread of each other (fastest of four
// 1103-1162 us/iter, whole-vector 1226-1324); in L2 (Poisson3D(32),
// n = 32768) one block read 2-5 % slower than four or sixteen. Four is
// the smallest that does not pay for its calls.
const sweepBlocks = 4

// DirectionSweep is everything a CG iteration does between its two
// inner products, in one pass over memory:
//
//	p ← src + beta·p   (skipped when src is nil: nothing is pending)
//	ap ← A·p           (rows computes a range of its rows)
//	return (p, ap)
//
// bitwise what Xpay, the whole product and Dot return one after the
// other. It walks the vectors granule by granule; the product of a
// granule runs once p is final on every column its rows read, which is
// reach elements past the granule's end — reach being the largest
// col − row of any entry, so rows [lo, hi) read nothing at or past
// hi+reach — and everything before it, already done. Each granule of p
// is therefore written, multiplied and dotted while it is in cache, and
// src, p, ap and the operator cross memory once. A reach of len(p) or
// more is the three whole-vector passes in order.
//
// The equality needs nothing new: the update is elementwise, a row's
// sum does not depend on how rows are cut into ranges (the RowKernel
// contract the pooled products rest on), and the inner product is the
// canonical tree — one dotLeaf per BlockLen block into part, then
// combineTree, exactly as the pooled Dot replays it. part is the
// caller's slab of at least ⌈len(p)/BlockLen⌉ cells.
//
// lap, when non-nil, is called after each part of each granule so the
// caller can charge a clock reading to it; nil reads no clock.
func DirectionSweep(rows RowKernel, reach int, src Vector, beta float64, p, ap, part Vector, lap func(SweepPart)) float64 {
	return directionSweep(sweepBlocks*BlockLen, rows, reach, src, beta, p, ap, part, lap)
}

// directionSweep is DirectionSweep at a granule of g elements, a
// multiple of BlockLen.
func directionSweep(g int, rows RowKernel, reach int, src Vector, beta float64, p, ap, part Vector, lap func(SweepPart)) float64 {
	n := len(p)
	mustSameLen2(n, len(ap))
	if n == 0 {
		return 0
	}
	part = part[:nblocks(n)]
	upd := n // p[:upd] is final
	if src != nil {
		mustSameLen2(n, len(src))
		upd = 0
	}
	reach = min(max(reach, 0), n)
	for lo := 0; lo < n; {
		hi := min(n, lo+g)
		if need := min(n, hi+reach); upd < need {
			for upd < need {
				to := min(n, upd+g)
				Xpay(src[upd:to], beta, p[upd:to])
				upd = to
			}
			if lap != nil {
				lap(SweepUpdate)
			}
		}
		rows(lo, hi, ap, p)
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
