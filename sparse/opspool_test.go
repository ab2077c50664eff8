package sparse

import (
	"runtime"
	"testing"

	"vrcg/internal/vec"
)

// TestDIAMulVecPoolMatchesSerial: the pooled DIA product must match the
// serial one bitwise across worker counts (each row accumulates its
// diagonals in the same order regardless of the split).
func TestDIAMulVecPoolMatchesSerial(t *testing.T) {
	n := 513
	main := make([]float64, n)
	off := make([]float64, n)
	far := make([]float64, n)
	for i := range main {
		main[i] = 4 + float64(i%7)
		off[i] = -1 + 0.01*float64(i%5)
		far[i] = 0.25
	}
	a := NewDIA(n, map[int][]float64{0: main, 1: off, -1: off, 7: far, -7: far})

	x := vec.New(n)
	vec.Random(x, 11)
	want := vec.New(n)
	a.MulVec(want, x)
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0), n + 3} {
		pool := vec.NewPoolMinChunk(w, 1)
		got := vec.New(n)
		vec.Fill(got, -321)
		a.MulVecPool(pool, got, x)
		if !vec.Equal(want, got) {
			t.Fatalf("workers=%d: DIA MulVecPool differs from MulVec", w)
		}
		pool.Close()
	}
}

// TestStencilMulVecPoolMatchesSerial: every stencil kind's pooled
// product, on the operator TuneMulVec runs it on, is bitwise identical
// to the serial one, including splits that cut mid-scanline and
// mid-plane.
func TestStencilMulVecPoolMatchesSerial(t *testing.T) {
	cases := []struct {
		kind StencilKind
		m    int
	}{
		{Stencil1D3, 257},
		{Stencil2D5, 19},
		{Stencil2D9, 17},
		{Stencil3D7, 9},
		{Stencil3D27, 7},
	}
	for _, tc := range cases {
		s := TuneMulVec(tc.kind.CSR(tc.m)).(PoolMulVec)
		n := s.Dim()
		x := vec.New(n)
		vec.Random(x, uint64(n))
		want := vec.New(n)
		s.MulVec(want, x)
		for _, w := range []int{2, 3, runtime.GOMAXPROCS(0), n + 1} {
			pool := vec.NewPoolMinChunk(w, 1)
			got := vec.New(n)
			vec.Fill(got, -321)
			s.MulVecPool(pool, got, x)
			if !vec.Equal(want, got) {
				t.Fatalf("%s workers=%d: %T MulVecPool differs from MulVec", tc.kind, w, s)
			}
			pool.Close()
		}
	}
}

// TestOpsPoolZeroAlloc: a warm pooled DIA product allocates nothing
// (the row-range kernel is a cached method value, not a fresh closure).
func TestOpsPoolZeroAlloc(t *testing.T) {
	pool := vec.NewPoolMinChunk(4, 64)
	defer pool.Close()

	n := 4096
	main := make([]float64, n)
	off := make([]float64, n)
	for i := range main {
		main[i] = 4
		off[i] = -1
	}
	d := NewDIA(n, map[int][]float64{0: main, 1: off, -1: off})
	xd := vec.New(n)
	vec.Random(xd, 6)
	dd := vec.New(n)
	d.MulVecPool(pool, dd, xd)
	if avg := testing.AllocsPerRun(100, func() { d.MulVecPool(pool, dd, xd) }); avg != 0 {
		t.Errorf("warm DIA MulVecPool allocates %v per call, want 0", avg)
	}
}

// TestPooledMulVecDispatch: the single dispatch point routes every
// PoolMulVec implementer through the pool and everything else through
// the serial product.
func TestPooledMulVecDispatch(t *testing.T) {
	pool := vec.NewPoolMinChunk(2, 1)
	defer pool.Close()
	n := 64
	ops := []Matrix{Poisson1D(n), Poisson1D(n).toDIA(1)}
	x := vec.New(n)
	vec.Random(x, 9)
	for _, a := range ops {
		want := vec.New(n)
		a.MulVec(want, x)
		got := vec.New(n)
		PooledMulVec(a, pool, got, x)
		if !vec.Equal(want, got) {
			t.Fatalf("%T: PooledMulVec differs from MulVec", a)
		}
	}
}
