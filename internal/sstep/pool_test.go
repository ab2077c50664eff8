package sstep

import (
	"runtime"
	"testing"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

// TestSolvePooledMatchesSerial: routing the s-step blocks through the
// worker-pool engine preserves convergence and the solution.
func TestSolvePooledMatchesSerial(t *testing.T) {
	a := sparse.Poisson2D(14)
	b := vec.New(a.Dim())
	vec.Random(b, 61)
	ref, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{S: 4, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		pool := vec.NewPoolMinChunk(w, 32)
		res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{S: 4, Tol: 1e-9, Pool: pool})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !res.Converged {
			t.Fatalf("workers=%d: pooled s-step did not converge", w)
		}
		if !vec.EqualTol(res.X, ref.X, 1e-6) {
			t.Fatalf("workers=%d: pooled solution differs", w)
		}
		pool.Close()
	}
}
