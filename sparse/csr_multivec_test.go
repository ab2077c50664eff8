package sparse

import (
	"runtime"
	"testing"

	"vrcg/internal/vec"
)

// TestMulVecsMatchesMulVecPerColumn: the one-pass multi-vector product
// yields every output column bitwise identical to the single-vector
// MulVec, for column counts exercising the 4-wide groups and the
// remainder path, serially and across worker counts.
func TestMulVecsMatchesMulVecPerColumn(t *testing.T) {
	mats := map[string]*CSR{
		"poisson2d": Poisson2D(17),
		"irregular": irregularCSR(400),
	}
	for name, a := range mats {
		n := a.Dim()
		for _, s := range []int{1, 3, 4, 7} {
			xs := make([][]float64, s)
			want := make([][]float64, s)
			dsts := make([][]float64, s)
			for j := 0; j < s; j++ {
				xs[j] = vec.New(n)
				vec.Random(xs[j], uint64(10*n+j))
				want[j] = vec.New(n)
				a.MulVec(want[j], xs[j])
				dsts[j] = vec.New(n)
			}
			a.MulVecs(dsts, xs)
			for j := 0; j < s; j++ {
				if !vec.Equal(want[j], dsts[j]) {
					t.Fatalf("%s s=%d: MulVecs column %d differs from MulVec", name, s, j)
				}
			}
			for _, w := range []int{1, 2, runtime.GOMAXPROCS(0), n + 5} {
				pool := vec.NewPoolMinChunk(w, 1)
				for j := range dsts {
					vec.Fill(dsts[j], -123)
				}
				a.MulVecsPool(pool, dsts, xs)
				for j := 0; j < s; j++ {
					if !vec.Equal(want[j], dsts[j]) {
						t.Fatalf("%s s=%d workers=%d: MulVecsPool column %d differs from MulVec", name, s, w, j)
					}
				}
				pool.Close()
			}
		}
	}
}

// TestMulVecsPoolZeroAlloc: a warm pooled multi-vector SpMV allocates
// nothing — the block solvers' per-iteration product must stay off the
// heap.
func TestMulVecsPoolZeroAlloc(t *testing.T) {
	a := Poisson2D(64) // n=4096
	pool := vec.NewPoolMinChunk(4, 64)
	defer pool.Close()
	s := 4
	xs := make([][]float64, s)
	dsts := make([][]float64, s)
	for j := 0; j < s; j++ {
		xs[j] = vec.New(a.Dim())
		vec.Random(xs[j], uint64(30+j))
		dsts[j] = vec.New(a.Dim())
	}
	a.MulVecsPool(pool, dsts, xs) // warm partition cache + workers
	if avg := testing.AllocsPerRun(100, func() { a.MulVecsPool(pool, dsts, xs) }); avg != 0 {
		t.Errorf("warm MulVecsPool allocates %v per call, want 0", avg)
	}
}

// TestPooledMulVecsFallsBackPerColumn: operators without a one-pass
// multi-vector product still serve PooledMulVecs via per-column
// products.
func TestPooledMulVecsFallsBackPerColumn(t *testing.T) {
	st := Poisson2D(16).toDIA(1) // DIA has MulVecPool but no MulVecsPool
	n := st.Dim()
	xs := make([][]float64, 2)
	want := make([][]float64, 2)
	dsts := make([][]float64, 2)
	for j := range xs {
		xs[j] = vec.New(n)
		vec.Random(xs[j], uint64(50+j))
		want[j] = vec.New(n)
		st.MulVec(want[j], xs[j])
		dsts[j] = vec.New(n)
	}
	PooledMulVecs(st, nil, dsts, xs)
	for j := range dsts {
		if !vec.Equal(want[j], dsts[j]) {
			t.Fatalf("PooledMulVecs fallback column %d differs from MulVec", j)
		}
	}
}
