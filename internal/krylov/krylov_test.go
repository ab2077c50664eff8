package krylov

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/sparse"
)

// solveCheck runs a solver and verifies the true residual meets a
// tolerance relative to ||b||.
func solveCheck(t *testing.T, name string, res *engine.Result, err error, b vec.Vector, tol float64) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Converged {
		t.Fatalf("%s: did not converge in %d iterations (res %g)", name, res.Iterations, res.ResidualNorm)
	}
	rel := res.TrueResidualNorm / vec.Norm2(b)
	if rel > tol {
		t.Fatalf("%s: true residual %g exceeds %g", name, rel, tol)
	}
}

func poissonSystem(m int, seed uint64) (*sparse.CSR, vec.Vector, vec.Vector) {
	a := sparse.Poisson2D(m)
	n := a.Dim()
	xTrue := vec.New(n)
	vec.Random(xTrue, seed)
	b := vec.New(n)
	a.MulVec(b, xTrue)
	return a, b, xTrue
}

func TestCGSolvesPoisson2D(t *testing.T) {
	a, b, xTrue := poissonSystem(8, 1)
	res, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{Tol: 1e-12})
	solveCheck(t, "CG", res, err, b, 1e-10)
	if !vec.EqualTol(res.X, xTrue, 1e-8) {
		t.Fatal("CG solution differs from truth")
	}
}

func TestCGExactTerminationSmall(t *testing.T) {
	// In exact arithmetic CG terminates in at most n steps; for a 3x3
	// well-conditioned system it should take <= 3 + rounding slack.
	a := sparse.TridiagToeplitz(3, 4, -1)
	b := vec.NewFrom([]float64{1, 2, 3})
	res, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 4 {
		t.Fatalf("CG took %d iterations on 3x3 system", res.Iterations)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := sparse.Poisson1D(10)
	b := vec.New(10)
	res, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero rhs: converged=%v iters=%d", res.Converged, res.Iterations)
	}
	if vec.Norm2(res.X) != 0 {
		t.Fatal("zero rhs should give zero solution from zero guess")
	}
}

func TestCGWarmStart(t *testing.T) {
	a, b, xTrue := poissonSystem(6, 2)
	// Start from the exact solution: should converge immediately.
	res, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{X0: xTrue, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Fatalf("warm start took %d iterations", res.Iterations)
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	a := sparse.Poisson1D(5)
	if _, err := engine.SolveOnce(NewCGKernel(), a, vec.New(6), engine.Config{}); !errors.Is(err, sparse.ErrDim) {
		t.Fatalf("want ErrDim, got %v", err)
	}
	if _, err := engine.SolveOnce(NewCGKernel(), a, vec.New(5), engine.Config{X0: vec.New(4)}); !errors.Is(err, sparse.ErrDim) {
		t.Fatalf("want ErrDim for x0, got %v", err)
	}
}

func TestCGIndefiniteDetected(t *testing.T) {
	a := sparse.DiagonalMatrix(vec.NewFrom([]float64{1, -1}))
	b := vec.NewFrom([]float64{1, 1})
	_, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{})
	if !errors.Is(err, engine.ErrIndefinite) {
		t.Fatalf("want ErrIndefinite, got %v", err)
	}
}

func TestCGHistoryMonotoneTail(t *testing.T) {
	a, b, _ := poissonSystem(8, 3)
	res, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{RecordHistory: true, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.Iterations+1 {
		t.Fatalf("history length %d for %d iterations", len(res.History), res.Iterations)
	}
	// CG residuals are not monotone in 2-norm, but the final entry must
	// be below the first for a converged solve.
	if res.History[len(res.History)-1] >= res.History[0] {
		t.Fatal("no residual reduction recorded")
	}
}

func TestCGCallbackEarlyStop(t *testing.T) {
	a, b, _ := poissonSystem(8, 4)
	stopAt := 3
	res, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{
		Tol: 1e-14,
		Callback: func(it int, _ float64) bool {
			return it < stopAt
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != stopAt {
		t.Fatalf("callback stop at %d, got %d iterations", stopAt, res.Iterations)
	}
	if res.Converged {
		t.Fatal("early-stopped solve should not report convergence")
	}
}

func TestCGStatsPerIteration(t *testing.T) {
	// The paper (§6): standard CG needs 2 inner products and 1 matvec per
	// iteration. Verify the counters reflect exactly that (plus setup:
	// 1 dot — with no X0 the initial residual is b, no product — and the
	// exit true-residual matvec). Three updates an iteration, less the
	// last step's direction update, which a converged solve never runs.
	a, b, _ := poissonSystem(6, 5)
	res, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	it := res.Iterations
	if got, want := res.Stats.MatVecs, it+1; got != want {
		t.Fatalf("matvecs = %d, want %d (1/iter + final check)", got, want)
	}
	if got, want := res.Stats.InnerProducts, 2*it+1; got != want {
		t.Fatalf("inner products = %d, want %d (2/iter + setup)", got, want)
	}
	if got, want := res.Stats.VectorUpdates, 3*it-1; got != want {
		t.Fatalf("vector updates = %d, want %d (3/iter, less the last direction update)", got, want)
	}
	if res.Stats.Flops <= 0 {
		t.Fatal("flop counter not accumulating")
	}
}

func TestCGMaxIterRespected(t *testing.T) {
	a, b, _ := poissonSystem(16, 6)
	res, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{MaxIter: 2, Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("MaxIter=2 but ran %d iterations", res.Iterations)
	}
	if res.Converged {
		t.Fatal("cannot converge on 16x16 Poisson grid in 2 iterations")
	}
}

func TestPCGJacobiSolves(t *testing.T) {
	a, b, _ := poissonSystem(8, 7)
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	res, errSolve := engine.SolveOnce(NewPCGKernel(), a, b, engine.Config{Tol: 1e-12, Precond: m})
	solveCheck(t, "PCG-Jacobi", res, errSolve, b, 1e-10)
}

func TestPCGSSORFasterThanCGOnIllConditioned(t *testing.T) {
	// SSOR preconditioning should cut iteration counts on a fine Poisson
	// grid relative to plain CG.
	a := sparse.Poisson2D(24)
	n := a.Dim()
	b := vec.New(n)
	vec.Random(b, 8)
	plain, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	m, err := precond.NewSSOR(a, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := engine.SolveOnce(NewPCGKernel(), a, b, engine.Config{Tol: 1e-8, Precond: m})
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Converged {
		t.Fatal("PCG-SSOR did not converge")
	}
	if pre.Iterations >= plain.Iterations {
		t.Fatalf("SSOR PCG (%d iters) not faster than CG (%d iters)", pre.Iterations, plain.Iterations)
	}
}

func TestPCGIdentityMatchesCG(t *testing.T) {
	a, b, _ := poissonSystem(6, 9)
	plain, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{Tol: 1e-10, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	id := precond.NewIdentity(a.Dim())
	pre, err := engine.SolveOnce(NewPCGKernel(), a, b, engine.Config{Tol: 1e-10, RecordHistory: true, Precond: id})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Iterations != pre.Iterations {
		t.Fatalf("identity PCG iterations %d != CG %d", pre.Iterations, plain.Iterations)
	}
	if !vec.EqualTol(plain.X, pre.X, 1e-9) {
		t.Fatal("identity PCG solution differs from CG")
	}
}

func TestPCGDimChecks(t *testing.T) {
	a := sparse.Poisson1D(5)
	id := precond.NewIdentity(4)
	if _, err := engine.SolveOnce(NewPCGKernel(), a, vec.New(5), engine.Config{Precond: id}); !errors.Is(err, sparse.ErrDim) {
		t.Fatalf("want ErrDim, got %v", err)
	}
}

func TestSteepestDescentConvergesSlowly(t *testing.T) {
	a, b, _ := poissonSystem(6, 10)
	sd, err := engine.SolveOnce(NewSDKernel(), a, b, engine.Config{Tol: 1e-8, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Converged {
		t.Fatal("steepest descent did not converge")
	}
	cg, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if sd.Iterations <= cg.Iterations {
		t.Fatalf("steepest descent (%d) should be slower than CG (%d)", sd.Iterations, cg.Iterations)
	}
}

func TestSteepestDescentIndefinite(t *testing.T) {
	a := sparse.DiagonalMatrix(vec.NewFrom([]float64{-1, 1}))
	if _, err := engine.SolveOnce(NewSDKernel(), a, vec.NewFrom([]float64{1, 0}), engine.Config{}); !errors.Is(err, engine.ErrIndefinite) {
		t.Fatalf("want ErrIndefinite, got %v", err)
	}
}

func TestCRSolves(t *testing.T) {
	a, b, _ := poissonSystem(8, 11)
	res, err := engine.SolveOnce(NewCRKernel(), a, b, engine.Config{Tol: 1e-11})
	solveCheck(t, "CR", res, err, b, 1e-9)
}

func TestCRResidualMonotone(t *testing.T) {
	// CR minimizes the residual norm, so history must be non-increasing.
	a, b, _ := poissonSystem(8, 12)
	res, err := engine.SolveOnce(NewCRKernel(), a, b, engine.Config{Tol: 1e-10, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]*(1+1e-10) {
			t.Fatalf("CR residual increased at step %d: %g -> %g", i, res.History[i-1], res.History[i])
		}
	}
}

func TestStatsAddAndString(t *testing.T) {
	s := engine.Stats{MatVecs: 1, InnerProducts: 2, VectorUpdates: 3, PrecondSolves: 4, Flops: 5}
	s.Add(engine.Stats{MatVecs: 10, InnerProducts: 20, VectorUpdates: 30, PrecondSolves: 40, Flops: 50})
	if s.MatVecs != 11 || s.InnerProducts != 22 || s.VectorUpdates != 33 || s.PrecondSolves != 44 || s.Flops != 55 {
		t.Fatalf("Stats.Add wrong: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("Stats.String empty")
	}
}

func TestCGIterationBoundKappa(t *testing.T) {
	// CG error contraction per iteration is at least
	// 2*((sqrt(k)-1)/(sqrt(k)+1)); for kappa=100 and tol 1e-8 the
	// iteration count must stay well under the n bound and the
	// sqrt(kappa) estimate times a small constant.
	n := 200
	kappa := 100.0
	a := sparse.PrescribedSpectrum(n, kappa)
	b := vec.New(n)
	vec.Random(b, 13)
	res, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("CG did not converge")
	}
	rate := (math.Sqrt(kappa) - 1) / (math.Sqrt(kappa) + 1)
	bound := int(math.Ceil(math.Log(2e8)/math.Log(1/rate))) + 2
	if res.Iterations > bound {
		t.Fatalf("CG took %d iterations, classical bound %d", res.Iterations, bound)
	}
}

// Property: CG solves random SPD systems to the requested tolerance.
func TestPropCGSolvesRandomSPD(t *testing.T) {
	f := func(seed uint64, szRaw uint8) bool {
		n := int(szRaw)%40 + 5
		a := sparse.RandomSPD(n, 4, seed)
		x := vec.New(n)
		vec.Random(x, seed+1)
		b := vec.New(n)
		a.MulVec(b, x)
		res, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{Tol: 1e-10, MaxIter: 20 * n})
		if err != nil || !res.Converged {
			return false
		}
		return res.TrueResidualNorm <= 1e-8*vec.Norm2(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the A-norm of the CG error is non-increasing (the defining
// optimality of CG), checked against the known solution.
func TestPropCGErrorANormMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		n := 30
		a := sparse.RandomSPD(n, 3, seed)
		xTrue := vec.New(n)
		vec.Random(xTrue, seed+9)
		b := vec.New(n)
		a.MulVec(b, xTrue)

		var norms []float64
		tmp := vec.New(n)
		errV := vec.New(n)
		xCur := vec.New(n)
		record := func(x vec.Vector) {
			vec.Sub(errV, x, xTrue)
			a.MulVec(tmp, errV)
			norms = append(norms, vec.Dot(errV, tmp))
		}
		record(xCur)
		// Run CG manually step by step to snapshot iterates.
		r := vec.Clone(b)
		p := vec.Clone(r)
		ap := vec.New(n)
		rr := vec.Dot(r, r)
		for it := 0; it < 15 && rr > 1e-24; it++ {
			a.MulVec(ap, p)
			pap := vec.Dot(p, ap)
			if pap <= 0 {
				return false
			}
			lam := rr / pap
			vec.Axpy(lam, p, xCur)
			vec.Axpy(-lam, ap, r)
			rrN := vec.Dot(r, r)
			vec.Xpay(r, rrN/rr, p)
			rr = rrN
			record(xCur)
		}
		for i := 1; i < len(norms); i++ {
			if norms[i] > norms[i-1]*(1+1e-9)+1e-18 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
