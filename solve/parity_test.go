package solve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"vrcg/internal/core"
	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/internal/pipecg"
	"vrcg/internal/sstep"
	"vrcg/internal/vec"
	"vrcg/precond"
)

// refResult is the slice of an internal result the parity contract
// covers: the registry-built solver must match its internal package on
// the same system to iteration count ±1 and final residual 1e-12.
type refResult struct {
	iters     int
	resNorm   float64
	converged bool
}

// TestRegistryMatchesInternal is the API parity gate: every
// registry-built solver against a direct call into its internal
// package, on one fixed SPD system, across pool worker counts 1
// (serial kernels) and NumCPU. The same pool drives both sides, so
// the chunked reductions reassociate identically and the runs are
// numerically reproducible.
func TestRegistryMatchesInternal(t *testing.T) {
	a, b := testSystem(16, 42) // 256-unknown 2D Poisson, manufactured rhs
	const tol = 1e-9

	jacobi, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}

	workerCounts := []int{1, runtime.NumCPU()}
	if runtime.NumCPU() == 1 {
		workerCounts = workerCounts[:1]
	}
	for _, workers := range workerCounts {
		var pool *vec.Pool
		if workers > 1 {
			pool = vec.NewPool(workers)
			defer pool.Close()
		}
		ko := engine.Config{Tol: tol, Pool: pool}
		po := engine.Config{Tol: tol, Pool: pool, Blocking: true}

		cases := []struct {
			method string
			opts   []Option
			ref    func() (refResult, error)
		}{
			{"cg", nil, func() (refResult, error) {
				r, err := engine.SolveOnce(krylov.NewCGKernel(), a, b, ko)
				return refResult{r.Iterations, r.ResidualNorm, r.Converged}, err
			}},
			{"cgfused", nil, func() (refResult, error) {
				r, err := engine.SolveOnce(krylov.NewCGKernel(), a, b, ko) // a second name for the cg kernel
				return refResult{r.Iterations, r.ResidualNorm, r.Converged}, err
			}},
			{"pcg", []Option{WithPreconditioner(jacobi)}, func() (refResult, error) {
				r, err := engine.SolveOnce(krylov.NewPCGKernel(), a, b, engine.Config{Tol: tol, Pool: pool, Precond: jacobi})
				return refResult{r.Iterations, r.ResidualNorm, r.Converged}, err
			}},
			{"cr", nil, func() (refResult, error) {
				r, err := engine.SolveOnce(krylov.NewCRKernel(), a, b, ko)
				return refResult{r.Iterations, r.ResidualNorm, r.Converged}, err
			}},
			{"minres", nil, func() (refResult, error) {
				r, err := engine.SolveOnce(krylov.NewMINRESKernel(), a, b, ko)
				return refResult{r.Iterations, r.ResidualNorm, r.Converged}, err
			}},
			{"vrcg", []Option{WithLookahead(3)}, func() (refResult, error) {
				r, err := engine.SolveOnce(core.NewKernel(), a, b, engine.Config{K: 3, Tol: tol, Pool: pool})
				return refResult{r.Iterations, r.ResidualNorm, r.Converged}, err
			}},
			{"pipecg", nil, func() (refResult, error) {
				r, err := engine.SolveOnce(pipecg.NewGVKernel(), a, b, po)
				return refResult{r.Iterations, r.ResidualNorm, r.Converged}, err
			}},
			{"gropp", nil, func() (refResult, error) {
				r, err := engine.SolveOnce(pipecg.NewGroppKernel(), a, b, po)
				return refResult{r.Iterations, r.ResidualNorm, r.Converged}, err
			}},
			{"sstep", []Option{WithBlockSize(4)}, func() (refResult, error) {
				r, err := engine.SolveOnce(sstep.NewKernel(), a, b, engine.Config{S: 4, Tol: tol, Pool: pool})
				return refResult{r.Iterations, r.ResidualNorm, r.Converged}, err
			}},
			// The parcg family's parity gate is the golden-trajectory
			// test in parcg_golden_test.go.
		}

		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.method, workers), func(t *testing.T) {
				want, err := tc.ref()
				if err != nil {
					t.Fatalf("internal reference: %v", err)
				}
				opts := append([]Option{WithTol(tol)}, tc.opts...)
				if pool != nil {
					opts = append(opts, WithPool(pool))
				}
				got, err := MustNew(tc.method).Solve(a, b, opts...)
				if err != nil && !errors.Is(err, ErrNotConverged) {
					t.Fatalf("registry solver: %v", err)
				}
				if d := got.Iterations - want.iters; d < -1 || d > 1 {
					t.Errorf("iterations: registry %d, internal %d (want ±1)", got.Iterations, want.iters)
				}
				if d := math.Abs(got.ResidualNorm - want.resNorm); d > 1e-12 {
					t.Errorf("final residual: registry %.17g, internal %.17g (|diff| = %g > 1e-12)",
						got.ResidualNorm, want.resNorm, d)
				}
				if got.Converged != want.converged {
					t.Errorf("converged: registry %v, internal %v", got.Converged, want.converged)
				}
			})
		}
	}
}

// TestParityRepeatedSolves pins the workspace-reuse contract under the
// parity lens: the second and third solves on one registry solver must
// reproduce the first bit-for-bit (the workspace is state, not memory
// of the previous system).
func TestParityRepeatedSolves(t *testing.T) {
	a, b := testSystem(16, 43)
	for _, method := range []string{"cg", "pcg", "pipecg"} {
		s := MustNew(method)
		var first *Result
		for rep := 0; rep < 3; rep++ {
			res, err := s.Solve(a, b, WithTol(1e-9))
			if err != nil {
				t.Fatalf("%s rep %d: %v", method, rep, err)
			}
			if first == nil {
				first = &Result{Iterations: res.Iterations, ResidualNorm: res.ResidualNorm}
				continue
			}
			if res.Iterations != first.Iterations || res.ResidualNorm != first.ResidualNorm {
				t.Errorf("%s rep %d: (%d, %g) != first (%d, %g)", method, rep,
					res.Iterations, res.ResidualNorm, first.Iterations, first.ResidualNorm)
			}
		}
	}
}
