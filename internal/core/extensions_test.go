package core

import (
	"testing"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

func TestResidualReplacementActivates(t *testing.T) {
	a := sparse.Poisson2D(8)
	b := vec.New(a.Dim())
	vec.Random(b, 41)
	res, err := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: 2, Tol: 1e-9, ResidualReplaceEvery: 6, ReanchorEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("no convergence with residual replacement")
	}
	if res.Replacements == 0 {
		t.Fatal("no replacements recorded")
	}
}

func TestResidualReplacementTightensTrueResidual(t *testing.T) {
	// Residual replacement ties the recursive residual to the true one;
	// the final true residual should be at least as good as the
	// window-only profile's (which drifts).
	a := sparse.Poisson1D(96)
	b := vec.New(96)
	vec.Random(b, 43)
	loose, errL := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: 3, Tol: 1e-10, MaxIter: 3000, WindowOnlyReanchor: true})
	repl, errR := engine.SolveOnce(NewKernel(), a, b, engine.Config{K: 3, Tol: 1e-10, MaxIter: 3000, ResidualReplaceEvery: 8})
	if errR != nil {
		t.Fatal(errR)
	}
	if !repl.Converged {
		t.Fatal("replacement run did not converge")
	}
	if errL == nil && loose.Converged && repl.TrueResidualNorm > 10*loose.TrueResidualNorm+1e-13 {
		t.Fatalf("replacement true residual %g worse than loose %g",
			repl.TrueResidualNorm, loose.TrueResidualNorm)
	}
}
