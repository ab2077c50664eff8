// Package pipecg implements the pipelined conjugate gradient methods
// that descend directly from the paper's idea and reached production
// solvers: Ghysels–Vanroose pipelined CG (2014; PETSc's KSPPIPECG) and
// Gropp's asynchronous two-reduction variant. Both restructure CG so
// global reductions overlap with the matrix–vector product — a depth-one
// version of the paper's k-deep look-ahead pipeline.
//
// Both methods are engine kernels (internal/engine): this package owns
// the pipelined recurrences; the engine driver owns options,
// convergence, callbacks, and history, and the engine workspace owns
// where an issued reduction runs — so the Ghysels–Vanroose kernel is
// both the registry's sequential "pipecg" and its overlapped
// "parcg-pipe". Parallel-time behaviour is modelled in packages depth
// and parcg.
package pipecg

import (
	"fmt"

	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

// Error sentinels shared with the rest of the solver family.
var (
	ErrIndefinite = engine.ErrIndefinite
	ErrBreakdown  = engine.ErrBreakdown
)

// Options configures a pipelined solve (the engine's shared Config;
// fields irrelevant here — Precond, K, S — are ignored).
type Options = engine.Config

// Result reports a pipelined solve (the canonical engine result).
type Result = engine.Result

// Stats re-exports the shared work counters.
type Stats = krylov.Stats

// run drives kernel k once on a fresh workspace.
func run(k engine.Kernel, a sparse.Matrix, b vec.Vector, o Options) (*Result, error) {
	if a.Dim() <= 0 {
		return nil, fmt.Errorf("pipecg: operator order %d must be positive: %w", a.Dim(), sparse.ErrDim)
	}
	res := new(Result)
	err := engine.Solve(k, engine.NewWorkspace(a.Dim(), o.Pool), a, b, o, res)
	return res, err
}

// GhyselsVanroose solves A x = b by the single-reduction pipelined CG;
// see gvKernel for the recurrences. As the sequential reference it
// evaluates each reduction at issue.
func GhyselsVanroose(a sparse.Matrix, b vec.Vector, o Options) (*Result, error) {
	o.Blocking = true
	return run(NewGVKernel(), a, b, o)
}

// Gropp solves A x = b by Gropp's asynchronous variant: two reductions
// per iteration, each overlapped with one of the two matvec-shaped
// operations, using the auxiliary vector s = A p. Like GhyselsVanroose
// it is the sequential reference.
func Gropp(a sparse.Matrix, b vec.Vector, o Options) (*Result, error) {
	o.Blocking = true
	return run(NewGroppKernel(), a, b, o)
}
