package core

import (
	"runtime"
	"testing"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

// TestSolvePooledMatchesSerial: routing VRCG through the worker-pool
// engine must preserve convergence and the solution (up to reduction
// reassociation, which re-anchoring keeps bounded).
func TestSolvePooledMatchesSerial(t *testing.T) {
	a := sparse.Poisson2D(16)
	b := vec.New(a.Dim())
	vec.Random(b, 55)
	for _, k := range []int{0, 2} {
		ref, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: k, Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
			pool := vec.NewPoolMinChunk(w, 32)
			res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: k, Tol: 1e-9, Pool: pool})
			if err != nil {
				t.Fatalf("k=%d workers=%d: %v", k, w, err)
			}
			if !res.Converged {
				t.Fatalf("k=%d workers=%d: pooled solve did not converge", k, w)
			}
			if !vec.EqualTol(res.X, ref.X, 1e-6) {
				t.Fatalf("k=%d workers=%d: pooled solution differs", k, w)
			}
			pool.Close()
		}
	}
}

// TestWindowStepZeroAlloc: advancing the scalar window is now
// allocation-free (scratch slabs swap instead of make).
func TestWindowStepZeroAlloc(t *testing.T) {
	w := NewWindow(4)
	for i := range w.M {
		w.M[i] = 1 / float64(i+1)
	}
	for i := range w.N {
		w.N[i] = 1 / float64(i+2)
	}
	for i := range w.W {
		w.W[i] = 1 / float64(i+3)
	}
	if avg := testing.AllocsPerRun(100, func() {
		w.Step(0.001, 0.5, 1e-6, 1e-6, 1e-6)
	}); avg != 0 {
		t.Errorf("Window.Step allocates %v per call, want 0", avg)
	}
}

// TestProductsGoThroughTheWorkspace: every product the families take is
// the workspace's, so a phase-timed solve charges time to spmv.
func TestProductsGoThroughTheWorkspace(t *testing.T) {
	a := sparse.Poisson2D(64)
	b := vec.New(a.Dim())
	vec.Random(b, 3)
	ws := engine.NewWorkspace(a.Dim(), nil)
	ws.TimePhases()
	var res engine.Result
	if err := engine.Solve(NewKernel(), ws, a, b, engine.Config{K: 2, Tol: 1e-8}, &res); err != nil {
		t.Fatal(err)
	}
	if sum := res.Phases[engine.PhaseSpMV].Sum; sum <= 0 {
		t.Fatalf("spmv phase time %g after %d iterations, want > 0", sum, res.Iterations)
	}
}
