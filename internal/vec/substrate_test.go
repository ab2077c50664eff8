package vec

import (
	"math"
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
		wantBatch := make([]float64, 3)
		part := make([]float64, 3*nblocks(n))
		DotBatch(x, []Vector{y, z, w}, wantBatch, part)

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
			p.DotBatch(x, []Vector{y, z, w}, gotBatch, part)
			for j := range wantBatch {
				if gotBatch[j] != wantBatch[j] {
					t.Fatalf("n=%d w=%d: pooled DotBatch[%d] = %.17g, serial %.17g",
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
// and DotBatch must also be allocation-free when warm.
func TestPoolZeroAllocNewKernels(t *testing.T) {
	n := 1 << 15
	x, y, z, w := New(n), New(n), New(n), New(n)
	Random(x, 41)
	Random(y, 42)
	Random(z, 43)
	Random(w, 44)
	ys := []Vector{y, z, w}
	dots := make([]float64, 3)
	p := NewPoolMinChunk(4, 64)
	defer p.Close()
	p.DotBatch(x, ys, dots, nil) // warm: workers + batch slab
	p.MulElem(z, x, y)

	if avg := testing.AllocsPerRun(100, func() { p.Xpay(x, 0.5, y) }); avg != 0 {
		t.Errorf("pooled Xpay allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.MulElem(z, x, y) }); avg != 0 {
		t.Errorf("pooled MulElem allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.DotBatch(x, ys, dots, nil) }); avg != 0 {
		t.Errorf("pooled DotBatch allocates %v per call, want 0", avg)
	}
}

// TestCalibrateInstallsCutoffs: Calibrate runs once, reports a cutoff
// for every opcode, installs the same values it reports, and repeated
// calls return the stored report without re-measuring.
func TestCalibrateInstallsCutoffs(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep in -short mode")
	}
	p := NewPool(2)
	defer p.Close()
	cal := p.Calibrate()
	if cal.Workers != 2 {
		t.Fatalf("Calibration.Workers = %d, want 2", cal.Workers)
	}
	for op := 1; op < nOps; op++ {
		name := opNames[op]
		c, ok := cal.Cutoffs[name]
		if !ok || c <= 0 {
			t.Fatalf("no positive cutoff reported for %q: %v", name, cal.Cutoffs)
		}
		if got := p.cut[op].Load(); got != c {
			t.Fatalf("installed cutoff for %q = %d, reported %d", name, got, c)
		}
	}
	again := p.Calibrate()
	for name, c := range cal.Cutoffs {
		if again.Cutoffs[name] != c {
			t.Fatalf("second Calibrate changed %q: %d -> %d", name, c, again.Cutoffs[name])
		}
	}
}

// TestCalibrateSerialPool: a one-worker pool can never win, so every
// cutoff must be "always serial".
func TestCalibrateSerialPool(t *testing.T) {
	p := NewPool(1)
	cal := p.Calibrate()
	for name, c := range cal.Cutoffs {
		if c != math.MaxInt64 {
			t.Fatalf("serial pool reported finite cutoff for %q: %d", name, c)
		}
	}
}

// TestCalibrateKeepsResults: calibration only moves the dispatch
// cutoffs, never the numbers — a dot computed before and after
// calibration is bitwise identical.
func TestCalibrateKeepsResults(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep in -short mode")
	}
	n := 1 << 17
	x, y := New(n), New(n)
	Random(x, 51)
	Random(y, 52)
	p := NewPool(4)
	defer p.Close()
	before := p.Dot(x, y)
	p.Calibrate()
	after := p.Dot(x, y)
	if before != after || before != Dot(x, y) {
		t.Fatalf("calibration changed Dot: before %.17g after %.17g serial %.17g",
			before, after, Dot(x, y))
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
	if c := p.cutoff(opDot); c < 1<<16 {
		t.Fatalf("default dot cutoff %d, want >= %d", c, 1<<16)
	}
	if c := p.cutoff(opAxpy); c < 1<<15 {
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
