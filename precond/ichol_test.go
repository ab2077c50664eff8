package precond_test

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

// icDense materializes the preconditioner action as a dense matrix by
// applying it to unit vectors.
func icDense(p precond.Preconditioner) *sparse.Dense {
	n := p.Dim()
	d := sparse.NewDense(n)
	e := vec.New(n)
	out := vec.New(n)
	for j := 0; j < n; j++ {
		vec.Zero(e)
		e[j] = 1
		p.Apply(out, e)
		for i := 0; i < n; i++ {
			d.Set(i, j, out[i])
		}
	}
	return d
}

func TestIC0ExactForTridiagonal(t *testing.T) {
	// A tridiagonal SPD matrix's Cholesky factor is bidiagonal, which is
	// inside the IC(0) pattern: the "incomplete" factorization is exact
	// and M^{-1} A = I.
	a := sparse.Poisson1D(20)
	ic, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.New(20)
	vec.Random(x, 1)
	ax := vec.New(20)
	a.MulVec(ax, x)
	z := vec.New(20)
	ic.Apply(z, ax)
	if !vec.EqualTol(z, x, 1e-10) {
		t.Fatal("IC(0) on tridiagonal should invert exactly")
	}
}

func TestIC0SymmetricPositive(t *testing.T) {
	a := sparse.Poisson2D(6)
	ic, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	d := icDense(ic)
	if !d.IsSymmetric(1e-10) {
		t.Fatal("IC(0) application not symmetric")
	}
	out := vec.New(a.Dim())
	for trial := 0; trial < 5; trial++ {
		r := vec.New(a.Dim())
		vec.Random(r, uint64(trial+1))
		ic.Apply(out, r)
		if q := vec.Dot(r, out); q <= 0 {
			t.Fatalf("IC(0) quadratic form non-positive: %v", q)
		}
	}
}

func TestIC0AcceleratesPCG(t *testing.T) {
	a := sparse.Poisson2D(24)
	b := vec.New(a.Dim())
	vec.Random(b, 2)
	plain, err := engine.SolveOnce(krylov.NewCGKernel(), a, b, engine.Config{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := engine.SolveOnce(krylov.NewPCGKernel(), a, b, engine.Config{Tol: 1e-8, Precond: ic})
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Converged {
		t.Fatal("PCG-IC0 did not converge")
	}
	if pre.Iterations >= plain.Iterations {
		t.Fatalf("IC(0) PCG (%d) not faster than CG (%d)", pre.Iterations, plain.Iterations)
	}
	// IC(0) should also beat Jacobi on a Laplacian.
	jac, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	jacRes, err := engine.SolveOnce(krylov.NewPCGKernel(), a, b, engine.Config{Tol: 1e-8, Precond: jac})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Iterations >= jacRes.Iterations {
		t.Fatalf("IC(0) (%d iters) not better than Jacobi (%d iters)", pre.Iterations, jacRes.Iterations)
	}
}

func TestIC0BreaksDownGracefully(t *testing.T) {
	// A symmetric matrix with positive diagonal that is NOT positive
	// definite: IC(0) must report a pivot failure, not NaN silently.
	coo := sparse.NewCOO(2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	coo.AddSym(0, 1, 2) // eigenvalues -1 and 3
	if _, err := precond.NewIC0(coo.ToCSR()); !errors.Is(err, precond.ErrNotFactorizable) {
		t.Fatalf("want precond.ErrNotFactorizable, got %v", err)
	}
}

func TestIC0MissingDiagonal(t *testing.T) {
	coo := sparse.NewCOO(2)
	coo.Add(0, 0, 1)
	coo.AddSym(0, 1, 0.1)
	// row 1 has no diagonal entry
	if _, err := precond.NewIC0(coo.ToCSR()); err == nil {
		t.Fatal("expected missing-diagonal error")
	}
}

func TestIC0FactorResidualSmallOnPattern(t *testing.T) {
	// For IC(0), (L L^T)[i][j] == A[i][j] on A's sparsity pattern.
	a := sparse.Poisson2D(5)
	n := a.Dim()
	ic, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	// Build L L^T densely via Apply on unit vectors is M^{-1}; instead
	// verify via solving: for any x, M^{-1}(A x) should differ from x
	// only through fill-in terms — weak check: relative error bounded.
	x := vec.New(n)
	vec.Random(x, 3)
	ax := vec.New(n)
	a.MulVec(ax, x)
	z := vec.New(n)
	ic.Apply(z, ax)
	diff := vec.New(n)
	vec.Sub(diff, z, x)
	if rel := vec.Norm2(diff) / vec.Norm2(x); rel > 0.5 {
		t.Fatalf("IC(0) too far from A on its pattern: rel %g", rel)
	}
	if math.IsNaN(vec.Norm2(z)) {
		t.Fatal("NaN in IC(0) application")
	}
}
