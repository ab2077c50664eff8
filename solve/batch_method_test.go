package solve_test

import (
	"context"
	"fmt"
	"testing"

	"vrcg/precond"
	"vrcg/solve"
	"vrcg/sparse"
)

// TestBatchSolvesByItsOwnMethod: a batch on a pooled session is solved
// by the session's method whatever its width, the pool's or the
// batch's: every route hands back, for every right-hand side, the lone
// pooled Session.Solve's result bit for bit — serial and pooled kernels
// are bitwise equal, so a batch worker's forked pool changes nothing.
// The blockcg and blockpcg rows (cg's and pcg's kernels) record
// History, which is per right-hand side: each one ends at its own
// ResidualNorm.
func TestBatchSolvesByItsOwnMethod(t *testing.T) {
	a := sparse.Poisson2D(12)
	jac, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	methods := []struct {
		name string
		hist bool
		opts []solve.Option
	}{
		{"cg", false, nil},
		{"pcg", false, []solve.Option{solve.WithPreconditioner(jac)}},
		{"blockcg", true, nil},
		{"blockpcg", true, []solve.Option{solve.WithPreconditioner(jac)}},
	}
	for _, m := range methods {
		for _, poolWorkers := range []int{2, 4} {
			pool := sparse.NewPool(poolWorkers)
			defer pool.Close()
			opts := append([]solve.Option{solve.WithTol(1e-10), solve.WithPool(pool), solve.WithHistory(m.hist)}, m.opts...)
			lone, err := solve.NewSession(m.name, a, opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := solve.NewSession(m.name, a, opts...)
			if err != nil {
				t.Fatal(err)
			}
			p, err := solve.NewSessionPool(m.name, a, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, nrhs := range []int{4, 8, 9} {
				B := rhsSet(a.Dim(), nrhs)
				want := make([]solve.Result, nrhs)
				for i, b := range B {
					res, err := lone.Solve(b)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = detach(*res)
					if h := res.History; m.hist && (len(h) != res.Iterations+1 || h[len(h)-1] != res.ResidualNorm) {
						t.Fatalf("%s rhs %d: History %v, want %d entries ending at ResidualNorm %g", m.name, i, h, res.Iterations+1, res.ResidualNorm)
					}
				}
				for _, workers := range []int{1, 2, 3} {
					w := solve.WithBatchWorkers(workers)
					where := func(route string) string {
						return fmt.Sprintf("%s pool=%d rhs=%d workers=%d %s", m.name, poolWorkers, nrhs, workers, route)
					}
					got, err := solve.Batch(sess, B, w)
					if err != nil {
						t.Fatal(err)
					}
					sameBatchBits(t, where("Batch"), got, want)
					if got, err = sess.SolveMany(B, w); err != nil {
						t.Fatal(err)
					}
					sameBatchBits(t, where("Session.SolveMany"), got, want)
					ps, err := p.Acquire(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if got, err = ps.SolveMany(B, w); err != nil {
						t.Fatal(err)
					}
					sameBatchBits(t, where("PooledSession.SolveMany"), got, want)
					ps.Release()
				}
			}
		}
	}
}
