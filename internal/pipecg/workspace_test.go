package pipecg

import (
	"runtime"
	"testing"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

// warmGV returns a solve function that reuses one Ghysels–Vanroose
// kernel on one engine workspace, the way the solve adapter holds them.
func warmGV(n int, pool *vec.Pool) func(sparse.Matrix, vec.Vector, engine.Config) (*engine.Result, error) {
	k, ws, res := NewGVKernel(), engine.NewWorkspace(n, pool), new(engine.Result)
	return func(a sparse.Matrix, b vec.Vector, o engine.Config) (*engine.Result, error) {
		return res, engine.Solve(k, ws, a, b, o, res)
	}
}

func TestWorkspaceGhyselsVanrooseMatchesPackage(t *testing.T) {
	a := sparse.Poisson2D(20)
	b := vec.New(a.Dim())
	vec.Random(b, 33)
	ref, err := engine.SolveOnce(NewGVKernel(), a, b, engine.Config{Blocking: true, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, runtime.GOMAXPROCS(0)} {
		var pool *vec.Pool
		if w > 0 {
			pool = vec.NewPoolMinChunk(w, 32)
		}
		solve := warmGV(a.Dim(), pool)
		res, err := solve(a, b, engine.Config{Tol: 1e-9})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !res.Converged {
			t.Fatalf("workers=%d: not converged", w)
		}
		if !vec.EqualTol(res.X, ref.X, 1e-6) {
			t.Fatalf("workers=%d: workspace solution differs", w)
		}
		if res.Iterations != ref.Iterations && w == 0 {
			t.Fatalf("serial workspace iterations %d != package %d", res.Iterations, ref.Iterations)
		}
		if pool != nil {
			pool.Close()
		}
	}
}

func TestWorkspaceGhyselsVanrooseZeroAllocs(t *testing.T) {
	a := sparse.Poisson2D(20)
	b := vec.New(a.Dim())
	vec.Random(b, 34)
	pool := vec.NewPoolMinChunk(4, 64)
	defer pool.Close()
	solve := warmGV(a.Dim(), pool)
	opts := engine.Config{Tol: 1e-8}
	if _, err := solve(a, b, opts); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := solve(a, b, opts); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm workspace pipelined solve allocates %v, want 0", avg)
	}
}

func TestWorkspaceReuse(t *testing.T) {
	a := sparse.Poisson2D(12)
	n := a.Dim()
	solve := warmGV(n, nil)
	for seed := uint64(1); seed <= 3; seed++ {
		b := vec.New(n)
		vec.Random(b, seed)
		res, err := solve(a, b, engine.Config{Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: not converged", seed)
		}
	}
}
