package krylov

import (
	"runtime"
	"testing"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/sparse"
)

func testSystem(t *testing.T, m int) (*sparse.CSR, vec.Vector) {
	t.Helper()
	a := sparse.Poisson2D(m)
	b := vec.New(a.Dim())
	vec.Random(b, 77)
	return a, b
}

// warm returns a solve function that reuses one kernel on one engine
// workspace — the way the solve adapter holds them — so the tests below
// check that the kernels reset fully in Init and allocate nothing once
// warm.
func warm(k engine.Kernel, n int, pool *vec.Pool) func(sparse.Matrix, vec.Vector, engine.Config) (*engine.Result, error) {
	ws, res := engine.NewWorkspace(n, pool), new(engine.Result)
	return func(a sparse.Matrix, b vec.Vector, o engine.Config) (*engine.Result, error) {
		return res, engine.Solve(k, ws, a, b, o, res)
	}
}

func TestWorkspaceCGMatchesCG(t *testing.T) {
	a, b := testSystem(t, 24)
	ref, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 1, 2, runtime.GOMAXPROCS(0)} {
		var pool *vec.Pool
		if w > 0 {
			pool = vec.NewPoolMinChunk(w, 32)
		}
		solve := warm(NewCGKernel(), a.Dim(), pool)
		res, err := solve(a, b, engine.Config{Tol: 1e-10})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !res.Converged {
			t.Fatalf("workers=%d: workspace CG did not converge", w)
		}
		if !vec.EqualTol(res.X, ref.X, 1e-6) {
			t.Fatalf("workers=%d: workspace CG solution differs from CG", w)
		}
		if pool != nil {
			pool.Close()
		}
	}
}

func TestWorkspacePCGMatchesPCG(t *testing.T) {
	a, b := testSystem(t, 24)
	jac, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.SolveOnce(NewPCGKernel(), a, b, engine.Config{Tol: 1e-10, Precond: jac})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, runtime.GOMAXPROCS(0)} {
		var pool *vec.Pool
		if w > 0 {
			pool = vec.NewPoolMinChunk(w, 32)
		}
		solve := warm(NewPCGKernel(), a.Dim(), pool)
		res, err := solve(a, b, engine.Config{Tol: 1e-10, Precond: jac})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !res.Converged {
			t.Fatalf("workers=%d: workspace PCG did not converge", w)
		}
		if !vec.EqualTol(res.X, ref.X, 1e-6) {
			t.Fatalf("workers=%d: workspace PCG solution differs from PCG", w)
		}
		if pool != nil {
			pool.Close()
		}
	}
}

// A warm PCG solve on a reused workspace performs zero heap
// allocations, pooled or serial.
func TestWorkspacePCGZeroAllocs(t *testing.T) {
	a, b := testSystem(t, 24) // n = 576
	jac, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Config{Tol: 1e-8, Precond: jac}

	for _, tc := range []struct {
		name string
		pool *vec.Pool
	}{
		{"serial", nil},
		{"pooled", vec.NewPoolMinChunk(4, 64)},
	} {
		solve := warm(NewPCGKernel(), a.Dim(), tc.pool)
		// Warm: spawn workers, build the partition cache.
		if _, err := solve(a, b, opts); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, err := solve(a, b, opts); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: warm workspace PCG solve allocates %v, want 0", tc.name, avg)
		}
		if tc.pool != nil {
			tc.pool.Close()
		}
	}
}

func TestWorkspaceCGZeroAllocs(t *testing.T) {
	a, b := testSystem(t, 24)
	pool := vec.NewPoolMinChunk(4, 64)
	defer pool.Close()
	solve := warm(NewCGKernel(), a.Dim(), pool)
	opts := engine.Config{Tol: 1e-8}
	if _, err := solve(a, b, opts); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := solve(a, b, opts); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm workspace CG solve allocates %v, want 0", avg)
	}
}

func TestWorkspaceReusedAcrossRHS(t *testing.T) {
	a, _ := testSystem(t, 16)
	n := a.Dim()
	solve := warm(NewCGKernel(), n, nil)
	for seed := uint64(1); seed <= 4; seed++ {
		b := vec.New(n)
		vec.Random(b, seed)
		res, err := solve(a, b, engine.Config{Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: not converged", seed)
		}
		// Verify against a fresh solve: stale workspace state must not leak.
		ref, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if !vec.EqualTol(res.X, ref.X, 1e-6) {
			t.Fatalf("seed %d: reused workspace diverges from fresh solve", seed)
		}
	}
}

func TestWorkspaceDimensionMismatch(t *testing.T) {
	a, b := testSystem(t, 8)
	solve := warm(NewCGKernel(), a.Dim()+1, nil)
	if _, err := solve(a, b, engine.Config{}); err == nil {
		t.Fatal("workspace accepted mismatched matrix order")
	}
}

func TestWorkspaceHistoryAndX0(t *testing.T) {
	a, b := testSystem(t, 12)
	solve := warm(NewCGKernel(), a.Dim(), nil)
	x0 := vec.New(a.Dim())
	vec.Fill(x0, 0.5)
	res, err := solve(a, b, engine.Config{Tol: 1e-9, X0: x0, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.Iterations+1 {
		t.Fatalf("history length %d for %d iterations", len(res.History), res.Iterations)
	}
	if x0[0] != 0.5 {
		t.Fatal("workspace mutated caller's X0")
	}
}
