package sstep

import (
	"errors"
	"testing"
	"testing/quick"

	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

func TestSolveS1MatchesCG(t *testing.T) {
	a := sparse.Poisson2D(6)
	n := a.Dim()
	b := vec.New(n)
	vec.Random(b, 1)
	cg, err := engine.SolveOnce(krylov.NewCGKernel(), a, b, engine.Config{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{S: 1, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Converged {
		t.Fatal("s=1 did not converge")
	}
	if !vec.EqualTol(ss.X, cg.X, 1e-6) {
		t.Fatal("s=1 solution differs from CG")
	}
	// Iteration counts agree closely (same method, batched scalars).
	if diff := ss.Iterations - cg.Iterations; diff < -2 || diff > 2 {
		t.Fatalf("s=1 iterations %d vs CG %d", ss.Iterations, cg.Iterations)
	}
}

func TestSolveBlocksS4(t *testing.T) {
	a := sparse.Poisson2D(7)
	n := a.Dim()
	xTrue := vec.New(n)
	vec.Random(xTrue, 2)
	b := vec.New(n)
	a.MulVec(b, xTrue)
	res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{S: 4, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("s=4 did not converge (res %g)", res.ResidualNorm)
	}
	if res.TrueResidualNorm > 1e-5*vec.Norm2(b) {
		t.Fatalf("true residual %g", res.TrueResidualNorm)
	}
	if res.Blocks == 0 || res.Blocks > res.Iterations {
		t.Fatalf("blocks = %d for %d iterations", res.Blocks, res.Iterations)
	}
	// Block economy: roughly ceil(iterations/s) blocks.
	if res.Blocks > res.Iterations/4+3 {
		t.Fatalf("too many blocks: %d for %d iterations", res.Blocks, res.Iterations)
	}
}

func TestSolveConvergenceAcrossS(t *testing.T) {
	a := sparse.TridiagToeplitz(128, 4.2, -1) // kappa ~ 2.6
	b := vec.New(128)
	vec.Random(b, 3)
	base, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{S: 1, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{2, 3, 5} {
		res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{S: s, Tol: 1e-8})
		if err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		if !res.Converged {
			t.Fatalf("s=%d did not converge", s)
		}
		// Mathematically identical iterations: counts stay close.
		if diff := res.Iterations - base.Iterations; diff < -s-2 || diff > s+2 {
			t.Fatalf("s=%d iterations %d vs s=1 %d", s, res.Iterations, base.Iterations)
		}
	}
}

func TestSolveMatvecEconomy(t *testing.T) {
	// ~(2s+1)/s matvecs per iteration, far fewer reductions per
	// iteration than CG's 2.
	a := sparse.TridiagToeplitz(96, 4.2, -1)
	b := vec.New(96)
	vec.Random(b, 4)
	s := 4
	res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{S: s, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence")
	}
	perIter := float64(res.Stats.MatVecs) / float64(res.Iterations)
	if perIter > float64(2*s+1)/float64(s)+1 {
		t.Fatalf("matvecs per iteration %.2f too high", perIter)
	}
	// Reductions: one batch of ~6s+6 per block + one resync per block.
	batches := float64(res.Stats.InnerProducts) / float64(res.Blocks)
	if batches > float64(6*s+8) {
		t.Fatalf("inner products per block %.1f too high", batches)
	}
}

func TestSolveZeroRHS(t *testing.T) {
	a := sparse.Poisson1D(10)
	res, err := engine.SolveOnce(NewKernel(), a, vec.New(10), engine.Config{S: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero rhs: converged=%v iters=%d", res.Converged, res.Iterations)
	}
}

func TestSolveRejectsBadArguments(t *testing.T) {
	a := sparse.Poisson1D(5)
	if _, err := engine.SolveOnce(NewKernel(), a, vec.New(6), engine.Config{S: 2}); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, err := engine.SolveOnce(NewKernel(), a, vec.New(5), engine.Config{S: 0}); err == nil {
		t.Fatal("expected S error")
	}
	if _, err := engine.SolveOnce(NewKernel(), a, vec.New(5), engine.Config{S: 2, X0: vec.New(3)}); err == nil {
		t.Fatal("expected x0 error")
	}
}

func TestSolveHistoryRecorded(t *testing.T) {
	a := sparse.Poisson2D(5)
	b := vec.New(a.Dim())
	vec.Random(b, 7)
	res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{S: 3, Tol: 1e-8, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < res.Iterations {
		t.Fatalf("history %d entries for %d iterations", len(res.History), res.Iterations)
	}
	last := res.History[len(res.History)-1]
	if last >= res.History[0] {
		t.Fatal("no recorded residual reduction")
	}
}

func TestLargeSBreaksDownGracefully(t *testing.T) {
	// On an ill-conditioned problem a large monomial block must either
	// converge (lucky) or fail with ErrBreakdown — never hang or panic.
	a := sparse.Poisson1D(256) // kappa ~ 2.7e4
	b := vec.New(256)
	vec.Random(b, 8)
	res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{S: 12, Tol: 1e-9, MaxIter: 3000})
	if err != nil {
		if !errors.Is(err, engine.ErrBreakdown) {
			t.Fatalf("unexpected error type: %v", err)
		}
		return
	}
	_ = res // converged or hit MaxIter — both acceptable
}

func TestWarmStart(t *testing.T) {
	a := sparse.Poisson2D(5)
	n := a.Dim()
	xTrue := vec.New(n)
	vec.Random(xTrue, 9)
	b := vec.New(n)
	a.MulVec(b, xTrue)
	res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{S: 3, X0: xTrue, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Fatalf("warm start took %d iterations", res.Iterations)
	}
}

// Property: s-step solves random well-conditioned SPD systems for small s.
func TestPropSolveRandomSPD(t *testing.T) {
	f := func(seed uint64, sRaw uint8) bool {
		s := int(sRaw)%4 + 1
		n := 40
		a := sparse.RandomSPD(n, 4, seed)
		x := vec.New(n)
		vec.Random(x, seed+1)
		b := vec.New(n)
		a.MulVec(b, x)
		res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{S: s, Tol: 1e-8, MaxIter: 30 * n})
		if err != nil || !res.Converged {
			return false
		}
		return res.TrueResidualNorm <= 1e-5*vec.Norm2(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
