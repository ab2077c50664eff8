package solve_test

import (
	"errors"
	"testing"

	"vrcg/solve"
	"vrcg/sparse"
)

// blockRoutePool returns a worker pool wide enough to satisfy the
// block route's gate: the route only engages where reductions cost a
// per-dispatch barrier that blocking can amortize.
func blockRoutePool(t *testing.T) *sparse.Pool {
	t.Helper()
	p := sparse.NewPool(2)
	t.Cleanup(p.Close)
	return p
}

// TestBatchBlockRouteSkips: the block route stays out of the way below
// the width threshold, whenever per-RHS semantics are requested
// (history recording has no block equivalent), and on serial kernels,
// where the measured block trade is a loss.
func TestBatchBlockRouteSkips(t *testing.T) {
	a := sparse.Poisson2D(12)
	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-11), solve.WithPool(blockRoutePool(t)))
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
			t.Fatalf("serial batch rhs %d solved by %q, want cg (no pool, no barriers to save)", i, res.Method)
		}
	}
}

// TestBatchBlockRouteFallback: when the block iteration itself fails —
// an indefinite operator trips the curvature check — the panel
// degrades to independent solves of the session's own method, so the
// batch reports the same per-RHS errors the generic path would.
func TestBatchBlockRouteFallback(t *testing.T) {
	a := sparse.TridiagToeplitz(40, -4, 1) // negative definite
	B := rhsSet(a.Dim(), 5)
	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-11), solve.WithPool(blockRoutePool(t)))
	if err != nil {
		t.Fatal(err)
	}
	results, err := sess.SolveMany(B)
	if !errors.Is(err, solve.ErrIndefinite) {
		t.Fatalf("err = %v, want ErrIndefinite", err)
	}
	var rhsErr *solve.RHSError
	if !errors.As(err, &rhsErr) {
		t.Fatalf("err = %v, want RHSError attribution", err)
	}
	for i, res := range results {
		if res.Method != "cg" {
			t.Fatalf("fallback rhs %d solved by %q, want cg (independent fallback)", i, res.Method)
		}
	}
}

// TestBatchBlockRouteDuplicateRHS: duplicated right-hand sides make the
// block Gram rank-deficient from the first iteration; the route must
// still converge every column end to end.
func TestBatchBlockRouteDuplicateRHS(t *testing.T) {
	a := sparse.Poisson2D(12)
	b := rhsSet(a.Dim(), 1)[0]
	B := [][]float64{b, b, b, b, b}
	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-11), solve.WithPool(blockRoutePool(t)))
	if err != nil {
		t.Fatal(err)
	}
	results, err := sess.SolveMany(B)
	if err != nil {
		t.Fatalf("duplicate-RHS batch: %v", err)
	}
	for i, res := range results {
		if !res.Converged {
			t.Fatalf("rhs %d not converged", i)
		}
		if d := maxAbsDiff(res.X, results[0].X); d != 0 {
			t.Fatalf("duplicate rhs %d differs from rhs 0 by %g", i, d)
		}
	}
}
