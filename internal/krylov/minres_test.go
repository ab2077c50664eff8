package krylov

import (
	"testing"
	"testing/quick"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

func TestMINRESSolvesSPD(t *testing.T) {
	a, b, xTrue := poissonSystem(8, 21)
	res, err := engine.SolveOnce(NewMINRESKernel(), a, b, engine.Config{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("MINRES did not converge in %d iterations (res %g)", res.Iterations, res.ResidualNorm)
	}
	if !vec.EqualTol(res.X, xTrue, 1e-6) {
		t.Fatal("MINRES solution wrong")
	}
}

func TestMINRESSolvesIndefinite(t *testing.T) {
	// The point of MINRES: symmetric indefinite systems CG cannot touch.
	d := vec.New(30)
	for i := range d {
		d[i] = float64(i - 15)
		if d[i] == 0 {
			d[i] = 0.5
		}
	}
	a := sparse.DiagonalMatrix(d)
	xTrue := vec.New(30)
	vec.Random(xTrue, 22)
	b := vec.New(30)
	a.MulVec(b, xTrue)

	if _, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{}); err == nil {
		t.Fatal("CG should fail on an indefinite system")
	}
	res, err := engine.SolveOnce(NewMINRESKernel(), a, b, engine.Config{Tol: 1e-10, MaxIter: 600})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("MINRES did not converge on indefinite system (res %g)", res.ResidualNorm)
	}
	if !vec.EqualTol(res.X, xTrue, 1e-5) {
		t.Fatal("MINRES indefinite solution wrong")
	}
}

func TestMINRESResidualMonotone(t *testing.T) {
	// MINRES minimizes the residual over the Krylov space: the recorded
	// history must be non-increasing.
	a, b, _ := poissonSystem(8, 23)
	res, err := engine.SolveOnce(NewMINRESKernel(), a, b, engine.Config{Tol: 1e-10, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]*(1+1e-10) {
			t.Fatalf("residual increased at step %d: %g -> %g", i, res.History[i-1], res.History[i])
		}
	}
}

func TestMINRESMatchesCGIterationsOnSPD(t *testing.T) {
	a, b, _ := poissonSystem(7, 24)
	cg, err := engine.SolveOnce(NewCGKernel(), a, b, engine.Config{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := engine.SolveOnce(NewMINRESKernel(), a, b, engine.Config{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if diff := mr.Iterations - cg.Iterations; diff < -3 || diff > 3 {
		t.Fatalf("MINRES iterations %d vs CG %d", mr.Iterations, cg.Iterations)
	}
}

func TestMINRESZeroRHS(t *testing.T) {
	a := sparse.Poisson1D(10)
	res, err := engine.SolveOnce(NewMINRESKernel(), a, vec.New(10), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero rhs: converged=%v iters=%d", res.Converged, res.Iterations)
	}
}

func TestMINRESCallbackStops(t *testing.T) {
	a, b, _ := poissonSystem(8, 25)
	res, err := engine.SolveOnce(NewMINRESKernel(), a, b, engine.Config{
		Tol:      1e-14,
		Callback: func(it int, _ float64) bool { return it < 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("callback stop at 3, got %d", res.Iterations)
	}
}

func TestMINRESDimErrors(t *testing.T) {
	a := sparse.Poisson1D(4)
	if _, err := engine.SolveOnce(NewMINRESKernel(), a, vec.New(5), engine.Config{}); err == nil {
		t.Fatal("expected dimension error")
	}
}

// Property: MINRES solves random symmetric (shifted indefinite) systems.
func TestPropMINRESSymmetric(t *testing.T) {
	f := func(seed uint64, shiftRaw int8) bool {
		n := 25
		base := sparse.RandomSPD(n, 4, seed)
		// Shift to make it indefinite sometimes.
		shift := float64(shiftRaw) / 16
		coo := sparse.NewCOO(n)
		for i := 0; i < n; i++ {
			base.ScanRow(i, func(j int, v float64) {
				coo.Add(i, j, v)
			})
			coo.Add(i, i, -shift)
		}
		a := coo.ToCSR()
		xTrue := vec.New(n)
		vec.Random(xTrue, seed+1)
		b := vec.New(n)
		a.MulVec(b, xTrue)
		if vec.Norm2(b) == 0 {
			return true
		}
		res, err := engine.SolveOnce(NewMINRESKernel(), a, b, engine.Config{Tol: 1e-8, MaxIter: 50 * n})
		if err != nil {
			return false
		}
		return res.TrueResidualNorm <= 1e-6*vec.Norm2(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
