package block

import (
	"errors"
	"math"
	"testing"

	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/sparse"
)

func testRHS(n, s int) []vec.Vector {
	bs := make([]vec.Vector, s)
	for j := 0; j < s; j++ {
		bs[j] = vec.New(n)
		vec.Random(bs[j], uint64(7*n+j+1))
	}
	return bs
}

func blockSolve(t *testing.T, kn *Kernel, a sparse.Matrix, b vec.Vector, cfg engine.Config) (*engine.Result, error) {
	t.Helper()
	var res engine.Result
	err := engine.Solve(kn, engine.NewWorkspace(a.Dim(), cfg.Pool), a, b, cfg, &res)
	return &res, err
}

// relDiff returns ‖x − y‖/‖y‖.
func relDiff(x, y vec.Vector) float64 {
	diff, norm := 0.0, 0.0
	for i := range y {
		d := x[i] - y[i]
		diff += d * d
		norm += y[i] * y[i]
	}
	return math.Sqrt(diff / norm)
}

// TestBlockCGMatchesIndependentSolves: each right-hand side's block
// solve matches the independent single-RHS (P)CG solve to 1e-12
// relative accuracy and meets its true residual.
func TestBlockCGMatchesIndependentSolves(t *testing.T) {
	// Well-conditioned so a 1e-13 residual tolerance pins the iterates
	// to ~1e-13 relative accuracy: the 1e-12 parity bound then compares
	// solutions, not solver noise.
	a := sparse.TridiagToeplitz(500, 4, -1)
	n := a.Dim()
	jac, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		kernel func() *Kernel
		single func() engine.Kernel
		m      precond.Preconditioner
	}{
		{"blockcg", NewCGKernel, krylov.NewCGKernel, nil},
		{"blockpcg", NewPCGKernel, krylov.NewPCGKernel, jac},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{Tol: 1e-13, Precond: tc.m}
			kn := tc.kernel()
			for j, b := range testRHS(n, 5) {
				want, err := engine.SolveOnce(tc.single(), a, b, cfg)
				if err != nil || !want.Converged {
					t.Fatalf("single solve %d: converged=%v err=%v", j, want.Converged, err)
				}
				res, err := blockSolve(t, kn, a, b, cfg)
				if err != nil || !res.Converged {
					t.Fatalf("block solve %d: converged=%v err=%v", j, res.Converged, err)
				}
				if rel := relDiff(res.X, want.X); rel > 1e-12 {
					t.Errorf("rhs %d relative error %.3g > 1e-12", j, rel)
				}
				if res.TrueResidualNorm > 1e-9*vec.Norm2(b) {
					t.Errorf("rhs %d true residual %g too large", j, res.TrueResidualNorm)
				}
			}
		})
	}
}

// TestBlockCGDuplicateRHS: solving a right-hand side and then a copy of
// it on the same kernel and workspace gives the same bits — nothing the
// first solve leaves in the kernel reaches the second.
func TestBlockCGDuplicateRHS(t *testing.T) {
	a := sparse.Poisson2D(16)
	n := a.Dim()
	b := vec.New(n)
	vec.Random(b, 3)

	kn := NewCGKernel()
	ws := engine.NewWorkspace(n, nil)
	cfg := engine.Config{Tol: 1e-10}
	var first, again engine.Result
	if err := engine.Solve(kn, ws, a, b, cfg, &first); err != nil || !first.Converged {
		t.Fatalf("first solve: converged=%v err=%v", first.Converged, err)
	}
	x0 := vec.Clone(first.X)
	if err := engine.Solve(kn, ws, a, vec.Clone(b), cfg, &again); err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(x0, again.X) || again.Iterations != first.Iterations || again.Stats != first.Stats {
		t.Errorf("repeated solve differs: %d/%d iterations, stats %+v / %+v",
			again.Iterations, first.Iterations, again.Stats, first.Stats)
	}
}

// TestBlockCGMixedConvergence: a zero right-hand side converges at the
// start with x = 0 and no step taken, and the same kernel then carries
// a nonzero one to convergence.
func TestBlockCGMixedConvergence(t *testing.T) {
	a := sparse.Poisson2D(16)
	n := a.Dim()
	kn := NewCGKernel()
	cfg := engine.Config{Tol: 1e-10}

	res, err := blockSolve(t, kn, a, vec.New(n), cfg)
	if err != nil || !res.Converged {
		t.Fatalf("zero-rhs solve: converged=%v err=%v", res.Converged, err)
	}
	if res.Iterations != 0 || vec.Norm2(res.X) != 0 {
		t.Errorf("zero-rhs solve used %d iterations, ‖x‖ = %g; want 0, 0", res.Iterations, vec.Norm2(res.X))
	}
	res, err = blockSolve(t, kn, a, testRHS(n, 1)[0], cfg)
	if err != nil || !res.Converged || vec.Norm2(res.X) == 0 {
		t.Fatalf("nonzero-rhs solve after a zero one: converged=%v err=%v", res.Converged, err)
	}
}

// TestBlockCGIndefinite: a negative-definite operator trips the
// negative-curvature check with engine.ErrIndefinite.
func TestBlockCGIndefinite(t *testing.T) {
	a := sparse.TridiagToeplitz(50, -4, 1) // negative definite
	_, err := blockSolve(t, NewCGKernel(), a, testRHS(50, 1)[0], engine.Config{Tol: 1e-10})
	if !errors.Is(err, engine.ErrIndefinite) {
		t.Fatalf("err = %v, want ErrIndefinite", err)
	}
}

// TestBlockCGBreakdown: the zero operator gives a zero curvature —
// engine.ErrBreakdown, not a hang or a panic.
func TestBlockCGBreakdown(t *testing.T) {
	coo := sparse.NewCOO(8)
	a := coo.ToCSR() // all-zero matrix
	_, err := blockSolve(t, NewCGKernel(), a, testRHS(8, 1)[0], engine.Config{Tol: 1e-10})
	if !errors.Is(err, engine.ErrBreakdown) {
		t.Fatalf("err = %v, want ErrBreakdown", err)
	}
}

// TestSolve1: the 1×1 Gram solve classifies s as the s×s pivoted
// Cholesky factorization did and returns its basic solution's bits.
func TestSolve1(t *testing.T) {
	const c = 0.7310585786300049
	for _, tc := range []struct {
		s    float64
		want error
	}{
		{-1, engine.ErrIndefinite},
		{-1e-300, engine.ErrIndefinite},
		{math.Inf(-1), engine.ErrIndefinite},
		{0, engine.ErrBreakdown},
		{math.Inf(1), engine.ErrBreakdown},
		{5e-324, nil},
		{1e-300, nil},
		{0.3, nil},
		{2, nil},
		{1e300, nil},
	} {
		lam, err := solve1(tc.s, c)
		if err != tc.want {
			t.Fatalf("s = %g: err = %v, want %v", tc.s, err, tc.want)
		}
		if err != nil {
			continue
		}
		l := math.Sqrt(tc.s)
		if want := (c / l) / l; math.Float64bits(lam) != math.Float64bits(want) {
			t.Errorf("s = %g: λ = %.17g, want (c/√s)/√s = %.17g", tc.s, lam, want)
		}
	}
	if lam, err := solve1(math.NaN(), c); err != nil || !math.IsNaN(lam) {
		t.Errorf("s = NaN: λ = %g, err = %v; want NaN, nil", lam, err)
	}
}

// TestBlockWarmZeroAlloc: a warm block solve on a reused workspace
// allocates nothing — the property the serving layer's session pools
// rely on. Runs under -race in CI.
func TestBlockWarmZeroAlloc(t *testing.T) {
	a := sparse.Poisson2D(16)
	n := a.Dim()
	b := testRHS(n, 1)[0]
	cfg := engine.Config{Tol: 1e-10}
	ws := engine.NewWorkspace(n, nil)
	var res engine.Result

	for _, tc := range []struct {
		name string
		kn   *Kernel
	}{
		{"blockcg", NewCGKernel()},
		{"blockpcg", NewPCGKernel()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := engine.Solve(tc.kn, ws, a, b, cfg, &res); err != nil {
				t.Fatalf("warmup solve: %v", err)
			}
			if avg := testing.AllocsPerRun(20, func() {
				if err := engine.Solve(tc.kn, ws, a, b, cfg, &res); err != nil {
					t.Fatalf("warm solve: %v", err)
				}
			}); avg != 0 {
				t.Errorf("warm %s solve allocates %v per run, want 0", tc.kn.Name(), avg)
			}
		})
	}
}

// TestBlockSingleRHSDegenerates: the block kernel is plain (P)CG — it
// must converge and match CG's iterate closely.
func TestBlockSingleRHSDegenerates(t *testing.T) {
	a := sparse.Poisson2D(16)
	n := a.Dim()
	b := vec.New(n)
	vec.Random(b, 11)

	ref, err := engine.SolveOnce(krylov.NewCGKernel(), a, b, engine.Config{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := blockSolve(t, NewCGKernel(), a, b, engine.Config{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("single-RHS block solve did not converge")
	}
	if rel := relDiff(res.X, ref.X); rel > 1e-10 {
		t.Errorf("single-RHS block iterate differs from CG by %.3g", rel)
	}
}
