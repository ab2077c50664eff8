package vec

import (
	"testing"
)

// TestPooledReductionsBitwiseSerial is the CI guard test for the
// canonical blocked reductions: on fixed seeds, every pooled reduction
// must equal its serial form EXACTLY — not within tolerance — for
// worker counts and vector lengths chosen to hit every chunk-boundary
// shape (single block, partial tail block, block-aligned, line-aligned).
func TestPooledReductionsBitwiseSerial(t *testing.T) {
	sizes := []int{1, BlockLen - 1, BlockLen, BlockLen + 1, 3 * BlockLen,
		8*BlockLen + 17, 1 << 15, 1<<17 + 12345}
	for _, n := range sizes {
		x, y, z, w := New(n), New(n), New(n), New(n)
		Random(x, uint64(n)+1)
		Random(y, uint64(n)+2)
		Random(z, uint64(n)+3)
		Random(w, uint64(n)+4)

		wantDot := Dot(x, y)
		wantXY, wantXZ := DotPair(x, y, z)
		// One left operand against three: the one-to-many shape, as a
		// batch that repeats it.
		wantBatch := make([]float64, 3)
		part := make([]float64, 3*nblocks(n))
		xs, ys := []Vector{x, x, x}, []Vector{y, z, w}
		Dots(wantBatch, xs, ys, part)

		for _, workers := range []int{2, 3, 4, 7} {
			p := NewPoolMinChunk(workers, 1)
			if got := p.Dot(x, y); got != wantDot {
				t.Fatalf("n=%d w=%d: pooled Dot = %.17g, serial %.17g (must be bitwise equal)",
					n, workers, got, wantDot)
			}
			gotXY, gotXZ := p.DotPair(x, y, z)
			if gotXY != wantXY || gotXZ != wantXZ {
				t.Fatalf("n=%d w=%d: pooled DotPair = (%.17g,%.17g), serial (%.17g,%.17g)",
					n, workers, gotXY, gotXZ, wantXY, wantXZ)
			}

			x1, r1 := Clone(z), Clone(w)
			x2, r2 := Clone(z), Clone(w)
			rr1 := FusedCGUpdate(0.37, x, y, x1, r1)
			rr2 := p.FusedCGUpdate(0.37, x, y, x2, r2)
			if rr1 != rr2 {
				t.Fatalf("n=%d w=%d: pooled FusedCGUpdate rr = %.17g, serial %.17g",
					n, workers, rr2, rr1)
			}
			if !Equal(x1, x2) || !Equal(r1, r2) {
				t.Fatalf("n=%d w=%d: pooled FusedCGUpdate vectors differ", n, workers)
			}

			gotBatch := make([]float64, 3)
			p.Dots(gotBatch, xs, ys, part)
			for j := range wantBatch {
				if gotBatch[j] != wantBatch[j] {
					t.Fatalf("n=%d w=%d: pooled Dots[%d] = %.17g, serial %.17g",
						n, workers, j, gotBatch[j], wantBatch[j])
				}
			}
			p.Close()
		}
	}
}

// TestDotTreeShape pins the canonical reduction definition itself: the
// tree combine must equal an explicit reference that sums each BlockLen
// block with four interleaved accumulators and pairwise-combines the
// block partials. If this fails, the "bitwise pooled==serial" guarantee
// has silently changed meaning.
func TestDotTreeShape(t *testing.T) {
	for _, n := range []int{5, BlockLen, 2*BlockLen + 100, 7*BlockLen + 3} {
		x, y := New(n), New(n)
		Random(x, uint64(2*n+1))
		Random(y, uint64(2*n+9))

		nb := nblocks(n)
		part := make([]float64, nb)
		for b := 0; b < nb; b++ {
			lo := b * BlockLen
			hi := lo + BlockLen
			if hi > n {
				hi = n
			}
			var s0, s1, s2, s3 float64
			i := lo
			for ; i+4 <= hi; i += 4 {
				s0 += x[i] * y[i]
				s1 += x[i+1] * y[i+1]
				s2 += x[i+2] * y[i+2]
				s3 += x[i+3] * y[i+3]
			}
			for ; i < hi; i++ {
				s0 += x[i] * y[i]
			}
			part[b] = (s0 + s1) + (s2 + s3)
		}
		var combine func(p []float64) float64
		combine = func(p []float64) float64 {
			if len(p) == 1 {
				return p[0]
			}
			mid := len(p) / 2
			return combine(p[:mid]) + combine(p[mid:])
		}
		if got, want := Dot(x, y), combine(part); got != want {
			t.Fatalf("n=%d: Dot = %.17g, reference tree %.17g", n, got, want)
		}
	}
}

// TestPoolZeroAllocNewKernels extends the steady-state allocation guard
// to the kernels added with the substrate rework: pooled Xpay, MulElem,
// and a one-to-many Dots batch must also be allocation-free when warm.
func TestPoolZeroAllocNewKernels(t *testing.T) {
	n := 1 << 15
	x, y, z, w := New(n), New(n), New(n), New(n)
	Random(x, 41)
	Random(y, 42)
	Random(z, 43)
	Random(w, 44)
	xs, ys := []Vector{x, x, x}, []Vector{y, z, w}
	dots := make([]float64, 3)
	p := NewPoolMinChunk(4, 64)
	defer p.Close()
	p.Dots(dots, xs, ys, nil) // warm: workers + batch slab
	p.MulElem(z, x, y)

	if avg := testing.AllocsPerRun(100, func() { p.Xpay(x, 0.5, y) }); avg != 0 {
		t.Errorf("pooled Xpay allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.MulElem(z, x, y) }); avg != 0 {
		t.Errorf("pooled MulElem allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.Dots(dots, xs, ys, nil) }); avg != 0 {
		t.Errorf("pooled Dots allocates %v per call, want 0", avg)
	}
}

// TestDefaultCutoffsConservative pins the small-n regression fix: with
// the default construction, reductions below 64Ki elements and
// elementwise ops below 32Ki must take the serial path outright (the
// old global minChunk=4096 pushed a 16Ki dot through the pool and lost
// 20x to wakeup latency).
func TestDefaultCutoffsConservative(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	if c := p.cut[opDot]; c < 1<<16 {
		t.Fatalf("default dot cutoff %d, want >= %d", c, 1<<16)
	}
	if c := p.cut[opAxpy]; c < 1<<15 {
		t.Fatalf("default axpy cutoff %d, want >= %d", c, 1<<15)
	}
	// Observable behavior: a 16Ki pooled dot must not dispatch (same
	// bits as serial AND no worker goroutines ever started).
	n := 1 << 14
	x, y := New(n), New(n)
	Random(x, 61)
	Random(y, 62)
	if got, want := p.Dot(x, y), Dot(x, y); got != want {
		t.Fatalf("below-cutoff pooled Dot = %.17g, serial %.17g", got, want)
	}
	if p.wake != nil {
		t.Fatal("below-cutoff dispatch spawned workers")
	}
}

// TestNilPoolIsSerial: a nil *Pool is the serial pool. Every kernel
// method returns the serial kernel's bits, each product that hands back
// to its caller declines and leaves dst alone, and none of them
// allocates — at lengths past every cutoff, where a real pool dispatches.
func TestNilPoolIsSerial(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 || p.SpMVParts(1<<30) != 0 || p.Fork(4) != nil {
		t.Fatalf("nil pool: Workers %d, SpMVParts %d, Fork %v", p.Workers(), p.SpMVParts(1<<30), p.Fork(4))
	}
	p.Close()
	for _, n := range []int{1, BlockLen + 3, 1<<18 + 5} {
		x, y, z := New(n), New(n), New(n)
		Random(x, uint64(n)+1)
		Random(y, uint64(n)+2)
		Random(z, uint64(n)+3)
		rowPtr, colIdx := make([]int, n+1), make([]int32, n)
		for i := range colIdx {
			rowPtr[i+1], colIdx[i] = i+1, int32(i)
		}
		bounds := []int{0, n / 2, n}
		xs, ys := []Vector{x, y}, []Vector{y, z}
		coef := []float64{0.5, -0.25}
		kern := RowKernel(func(lo, hi int, dst, x Vector) { copy(dst[lo:hi], x[lo:hi]) })
		part := make([]float64, 2*nblocks(n))
		cases := []struct {
			name           string
			serial, pooled func(d []Vector, s []float64)
		}{
			{"Dot",
				func(d []Vector, s []float64) { s[0] = Dot(x, y) },
				func(d []Vector, s []float64) { s[0] = p.Dot(x, y) }},
			{"DotPair",
				func(d []Vector, s []float64) { s[0], s[1] = DotPair(x, y, z) },
				func(d []Vector, s []float64) { s[0], s[1] = p.DotPair(x, y, z) }},
			{"Axpy",
				func(d []Vector, s []float64) { Axpy(0.37, x, d[0]) },
				func(d []Vector, s []float64) { p.Axpy(0.37, x, d[0]) }},
			{"Xpay",
				func(d []Vector, s []float64) { Xpay(x, -0.5, d[0]) },
				func(d []Vector, s []float64) { p.Xpay(x, -0.5, d[0]) }},
			{"MulElem",
				func(d []Vector, s []float64) { MulElem(d[0], x, y) },
				func(d []Vector, s []float64) { p.MulElem(d[0], x, y) }},
			{"FusedCGUpdate",
				func(d []Vector, s []float64) { s[0] = FusedCGUpdate(0.37, x, y, d[0], d[1]) },
				func(d []Vector, s []float64) { s[0] = p.FusedCGUpdate(0.37, x, y, d[0], d[1]) }},
			{"Dots",
				func(d []Vector, s []float64) { Dots(s[:2], xs, ys, part) },
				func(d []Vector, s []float64) { p.Dots(s[:2], xs, ys, part) }},
			{"Combine",
				func(d []Vector, s []float64) { Combine(d[0], d[1], coef, xs) },
				func(d []Vector, s []float64) { p.Combine(d[0], d[1], coef, xs) }},
			{"RowMulVec", func([]Vector, []float64) {},
				func(d []Vector, s []float64) { s[0] = b2f(p.RowMulVec(n, d[0], x, kern)) }},
			{"RowMulVecBounds", func([]Vector, []float64) {},
				func(d []Vector, s []float64) { s[0] = b2f(p.RowMulVecBounds(bounds, d[0], x, kern)) }},
			{"CSRMulVec", func([]Vector, []float64) {},
				func(d []Vector, s []float64) { s[0] = b2f(p.CSRMulVec(bounds, rowPtr, colIdx, y, d[0], x)) }},
		}
		want, got := []Vector{New(n), New(n)}, []Vector{New(n), New(n)}
		wantS, gotS := make([]float64, 4), make([]float64, 4)
		for _, c := range cases {
			for i := range want {
				Random(want[i], uint64(n+i)+9)
				copy(got[i], want[i])
			}
			clear(wantS)
			clear(gotS)
			c.serial(want, wantS)
			c.pooled(got, gotS)
			for i := range want {
				for k := range want[i] {
					if !sameFloat(got[i][k], want[i][k]) {
						t.Fatalf("n=%d %s: nil pool wrote %v at [%d][%d], serial %v", n, c.name, got[i][k], i, k, want[i][k])
					}
				}
			}
			for k := range wantS {
				if !sameFloat(gotS[k], wantS[k]) {
					t.Fatalf("n=%d %s: nil pool result %d = %v, serial %v", n, c.name, k, gotS[k], wantS[k])
				}
			}
			if avg := testing.AllocsPerRun(5, func() { c.pooled(got, gotS) }); avg != 0 {
				t.Errorf("n=%d %s on the nil pool allocates %v per call, want 0", n, c.name, avg)
			}
		}
	}
}

// b2f is 1 for true: a declined product and the serial side both read 0.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TestForkKeepsCutoffs: a fork has its own workers and dispatches by its
// parent's rule — NewPool's cutoffs, or the test seam's — and a forced
// parent's fork still takes small kernels onto its workers.
func TestForkKeepsCutoffs(t *testing.T) {
	for _, parent := range []*Pool{NewPool(4), NewPoolMinChunk(4, 1), NewPoolMinChunk(2, 64)} {
		for _, w := range []int{0, 1, 3} {
			f := parent.Fork(w)
			if f == parent || f.Workers() != max(w, 1) || f.cut != parent.cut || f.minChunk != parent.minChunk {
				t.Fatalf("Fork(%d) of a %d-worker pool: %d workers, cutoffs %v chunk %d; parent %v chunk %d",
					w, parent.Workers(), f.Workers(), f.cut, f.minChunk, parent.cut, parent.minChunk)
			}
			f.Close()
		}
		parent.Close()
	}
	f := NewPoolMinChunk(4, 1).Fork(2)
	defer f.Close()
	n := 4 * BlockLen
	x, y := New(n), New(n)
	Random(x, 71)
	Random(y, 72)
	if got, want := f.Dot(x, y), Dot(x, y); got != want {
		t.Fatalf("fork Dot = %.17g, serial %.17g", got, want)
	}
	if f.wake == nil {
		t.Fatal("the fork of a forced pool ran a 4-block Dot serially")
	}
}
