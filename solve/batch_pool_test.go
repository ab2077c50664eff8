package solve_test

import (
	"errors"
	"testing"

	"vrcg/solve"
	"vrcg/sparse"
)

// twoWorkerPool returns a 2-worker engine pool, closed with the test.
func twoWorkerPool(t *testing.T) *sparse.Pool {
	t.Helper()
	p := sparse.NewPool(2)
	t.Cleanup(p.Close)
	return p
}

// TestPoolBatchSolvedByCG: a cg batch on a 2-worker pool is solved by
// cg however it is shaped — narrow, recording history — and so is a
// wide one on serial kernels.
func TestPoolBatchSolvedByCG(t *testing.T) {
	a := sparse.Poisson2D(12)
	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-11), solve.WithPool(twoWorkerPool(t)))
	if err != nil {
		t.Fatal(err)
	}

	narrow, err := sess.SolveMany(rhsSet(a.Dim(), 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range narrow {
		if res.Method != "cg" {
			t.Fatalf("narrow batch rhs %d solved by %q, want cg", i, res.Method)
		}
	}

	hist, err := sess.SolveMany(rhsSet(a.Dim(), 6), solve.WithHistory(true))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range hist {
		if res.Method != "cg" {
			t.Fatalf("history batch rhs %d solved by %q, want cg", i, res.Method)
		}
		if len(res.History) == 0 {
			t.Fatalf("history batch rhs %d has no history", i)
		}
	}

	serial, err := solve.NewSession("cg", a, solve.WithTol(1e-11))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := serial.SolveMany(rhsSet(a.Dim(), 8))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range wide {
		if res.Method != "cg" {
			t.Fatalf("serial batch rhs %d solved by %q, want cg", i, res.Method)
		}
	}
}

// TestPoolBatchIndefinite: on a negative-definite operator each right-hand
// side's failure comes back as an *RHSError wrapping ErrIndefinite,
// attributed to the method the batch names — for blockcg, cg's kernel's
// negative-curvature check under blockcg's name.
func TestPoolBatchIndefinite(t *testing.T) {
	a := sparse.TridiagToeplitz(40, -4, 1) // negative definite
	B := rhsSet(a.Dim(), 5)
	for _, method := range []string{"cg", "blockcg"} {
		sess, err := solve.NewSession(method, a, solve.WithTol(1e-11), solve.WithPool(twoWorkerPool(t)))
		if err != nil {
			t.Fatal(err)
		}
		results, err := sess.SolveMany(B)
		if !errors.Is(err, solve.ErrIndefinite) {
			t.Fatalf("%s: err = %v, want ErrIndefinite", method, err)
		}
		var rhsErr *solve.RHSError
		if !errors.As(err, &rhsErr) {
			t.Fatalf("%s: err = %v, want RHSError attribution", method, err)
		}
		for i, res := range results {
			if res.Method != method {
				t.Fatalf("%s: rhs %d solved by %q", method, i, res.Method)
			}
		}
	}
}

// TestPoolBatchDuplicateRHS: five copies of one right-hand side converge
// to the same bits, for blockcg through cg's kernel.
func TestPoolBatchDuplicateRHS(t *testing.T) {
	a := sparse.Poisson2D(12)
	b := rhsSet(a.Dim(), 1)[0]
	B := [][]float64{b, b, b, b, b}
	for _, method := range []string{"cg", "blockcg"} {
		sess, err := solve.NewSession(method, a, solve.WithTol(1e-11), solve.WithPool(twoWorkerPool(t)))
		if err != nil {
			t.Fatal(err)
		}
		results, err := sess.SolveMany(B)
		if err != nil {
			t.Fatalf("%s duplicate-RHS batch: %v", method, err)
		}
		for i, res := range results {
			if !res.Converged {
				t.Fatalf("%s: rhs %d not converged", method, i)
			}
			if d := maxAbsDiff(res.X, results[0].X); d != 0 {
				t.Fatalf("%s: duplicate rhs %d differs from rhs 0 by %g", method, i, d)
			}
		}
	}
}
