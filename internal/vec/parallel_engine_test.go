package vec

import (
	"runtime"
	"sync"
	"testing"
)

// engineWorkerCounts is the satellite-test matrix: serial degenerate,
// minimal parallel, the host's CPU count, and more workers than there
// are elements.
func engineWorkerCounts(n int) []int {
	return []int{1, 2, runtime.GOMAXPROCS(0), n + 3}
}

// TestPooledKernelsMatchSerialAcrossWorkerCounts is the engine
// equivalence property: every pooled kernel agrees with its serial form
// (bitwise for elementwise ops, within tolerance for reductions) for
// worker counts 1, 2, NumCPU, and > element count.
func TestPooledKernelsMatchSerialAcrossWorkerCounts(t *testing.T) {
	for _, n := range []int{1, 5, 127, 1024, 10000} {
		x := New(n)
		y := New(n)
		z := New(n)
		Random(x, uint64(3*n+1))
		Random(y, uint64(3*n+2))
		Random(z, uint64(3*n+3))

		wantDot := Dot(x, y)
		wantXY, wantXZ := DotPair(x, y, z)

		for _, w := range engineWorkerCounts(n) {
			p := NewPoolMinChunk(w, 1)

			if got := p.Dot(x, y); !almostEqual(got, wantDot, 1e-11) {
				t.Fatalf("n=%d w=%d Dot = %v want %v", n, w, got, wantDot)
			}
			gotXY, gotXZ := p.DotPair(x, y, z)
			if !almostEqual(gotXY, wantXY, 1e-11) || !almostEqual(gotXZ, wantXZ, 1e-11) {
				t.Fatalf("n=%d w=%d DotPair = (%v,%v) want (%v,%v)", n, w, gotXY, gotXZ, wantXY, wantXZ)
			}

			// Elementwise kernels must match bitwise.
			y1, y2 := Clone(y), Clone(y)
			Axpy(1.25, x, y1)
			p.Axpy(1.25, x, y2)
			if !Equal(y1, y2) {
				t.Fatalf("n=%d w=%d pooled Axpy differs bitwise", n, w)
			}

			y1, y2 = Clone(y), Clone(y)
			Xpay(x, -0.75, y1)
			p.Xpay(x, -0.75, y2)
			if !Equal(y1, y2) {
				t.Fatalf("n=%d w=%d pooled Xpay differs bitwise", n, w)
			}

			d1, d2 := New(n), New(n)
			MulElem(d1, x, y)
			p.MulElem(d2, x, y)
			if !Equal(d1, d2) {
				t.Fatalf("n=%d w=%d pooled MulElem differs bitwise", n, w)
			}

			x1, r1 := Clone(x), Clone(z)
			x2, r2 := Clone(x), Clone(z)
			rr1 := FusedCGUpdate(0.3, y, z, x1, r1)
			rr2 := p.FusedCGUpdate(0.3, y, z, x2, r2)
			if !Equal(x1, x2) || !Equal(r1, r2) {
				t.Fatalf("n=%d w=%d pooled FusedCGUpdate vectors differ bitwise", n, w)
			}
			if !almostEqual(rr1, rr2, 1e-11) {
				t.Fatalf("n=%d w=%d FusedCGUpdate rr = %v want %v", n, w, rr2, rr1)
			}
			p.Close()
		}
	}
}

// TestPoolZeroAllocSteadyState proves the dispatch path allocates
// nothing once the pool is warm: no per-call goroutines, closures, or
// partial-sum slices.
func TestPoolZeroAllocSteadyState(t *testing.T) {
	n := 1 << 15
	x := New(n)
	y := New(n)
	r := New(n)
	w := New(n)
	Random(x, 1)
	Random(y, 2)
	Random(r, 3)
	p := NewPoolMinChunk(4, 64)
	defer p.Close()
	p.Dot(x, y) // warm: spawns workers, sizes slabs

	if avg := testing.AllocsPerRun(100, func() { p.Dot(x, y) }); avg != 0 {
		t.Errorf("pooled Dot allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.Axpy(0.5, x, y) }); avg != 0 {
		t.Errorf("pooled Axpy allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.FusedCGUpdate(1e-3, x, y, w, r) }); avg != 0 {
		t.Errorf("pooled FusedCGUpdate allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { p.DotPair(x, y, r) }); avg != 0 {
		t.Errorf("pooled DotPair allocates %v per call, want 0", avg)
	}
}

// TestPoolGoroutineCountStable verifies workers are persistent: many
// dispatches reuse the same goroutines instead of spawning per call.
func TestPoolGoroutineCountStable(t *testing.T) {
	n := 1 << 14
	x := New(n)
	y := New(n)
	Random(x, 5)
	Random(y, 6)
	p := NewPoolMinChunk(4, 64)
	defer p.Close()
	p.Dot(x, y)
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		p.Dot(x, y)
	}
	after := runtime.NumGoroutine()
	if after > before+1 {
		t.Fatalf("goroutine count grew from %d to %d across dispatches", before, after)
	}
}

// TestPoolConcurrentDispatch checks that concurrent callers of one pool
// serialize correctly and all get right answers.
func TestPoolConcurrentDispatch(t *testing.T) {
	n := 1 << 13
	x := New(n)
	y := New(n)
	Random(x, 11)
	Random(y, 12)
	p := NewPoolMinChunk(4, 64)
	defer p.Close()
	want := p.Dot(x, y)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := p.Dot(x, y); got != want {
					t.Errorf("concurrent pooled Dot = %v want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoolCloseFallsBackToSerial: kernels on a closed pool still return
// correct results via the serial path.
func TestPoolCloseFallsBackToSerial(t *testing.T) {
	n := 1 << 13
	x := New(n)
	y := New(n)
	Random(x, 13)
	Random(y, 14)
	p := NewPoolMinChunk(4, 1)
	got1 := p.Dot(x, y)
	p.Close()
	p.Close() // idempotent
	got2 := p.Dot(x, y)
	if !almostEqual(got1, got2, 1e-11) {
		t.Fatalf("Dot after Close = %v, before = %v", got2, got1)
	}
}

func TestPoolCSRMulVecRejectsOversizedPartition(t *testing.T) {
	p := NewPoolMinChunk(2, 1)
	defer p.Close()
	// 3 chunks > 2 workers: must refuse and leave dst untouched.
	n := 6
	rowPtr := []int{0, 1, 2, 3, 4, 5, 6}
	colIdx := []int{0, 1, 2, 3, 4, 5}
	vals := []float64{1, 1, 1, 1, 1, 1}
	dst := New(n)
	Fill(dst, -1)
	x := New(n)
	Fill(x, 2)
	if p.CSRMulVec([]int{0, 2, 4, 6}, rowPtr, colIdx, vals, dst, x) {
		t.Fatal("CSRMulVec accepted a partition wider than the pool")
	}
	for i := range dst {
		if dst[i] != -1 {
			t.Fatal("CSRMulVec touched dst after refusing")
		}
	}
}
