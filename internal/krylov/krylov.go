// Package krylov implements the classical iterative solvers the paper's
// new algorithm is measured against: steepest descent, the standard
// Hestenes–Stiefel conjugate gradient iteration (the "standard CG" of
// the paper's section 2), preconditioned CG, conjugate residuals, and
// MINRES.
//
// Every method is an engine kernel (internal/engine): this package owns
// only the numerics of each iteration — Init/Step/Residual/Finish over
// the shared workspace arena — while the engine driver owns option
// defaults, convergence checks, callbacks, and history. The package
// functions below (CG, PCG, ...) are thin wrappers that run a fresh
// kernel through the driver on a fresh workspace; callers that solve
// repeatedly keep an engine.Workspace and a kernel and call
// engine.Solve themselves, which allocates nothing once warm.
//
// Every solver reports operation statistics (matrix–vector products,
// inner products, vector updates, flops) so the sequential-complexity
// experiment (paper §6: "we still need two inner products and a matrix
// vector product at every iteration") can compare algorithms exactly.
package krylov

import (
	"fmt"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/sparse"
)

// ErrIndefinite is returned when an iteration encounters a curvature
// <p, Ap> <= 0, meaning the operator is not positive definite.
var ErrIndefinite = engine.ErrIndefinite

// ErrBreakdown is returned when an iteration produces a non-finite or
// degenerate scalar and cannot continue.
var ErrBreakdown = engine.ErrBreakdown

// ErrBadOption is returned when solver options are invalid for the
// method (negative look-ahead, zero block size, and the like). All
// solver packages wrap it so callers can errors.Is against one sentinel
// regardless of the method.
var ErrBadOption = engine.ErrBadOption

// ErrUnsupportedOperator is returned when a method needs an operator
// capability the supplied type lacks (the normal-equations methods need
// transpose products, sparse.TransposeMulVec).
var ErrUnsupportedOperator = engine.ErrUnsupportedOperator

// ErrDim reports a dimension mismatch between an operator and a vector.
var ErrDim = sparse.ErrDim

// Stats counts the work an iterative solve performed (alias of the
// engine type; see engine.Stats).
type Stats = engine.Stats

// Result reports the outcome of an iterative solve (alias of the
// canonical engine result; fields other methods produce — Blocks, the
// vrcg drift diagnostics — stay zero here).
type Result = engine.Result

// Options configures an iterative solve. It is the engine's one shared
// Config: fields irrelevant to a method (K, S, Precond outside PCG) are
// ignored.
type Options = engine.Config

// run drives kernel k once on a fresh workspace — the one-shot package
// entry points share it.
func run(k engine.Kernel, a sparse.Matrix, b vec.Vector, o Options) (*Result, error) {
	if a.Dim() <= 0 {
		return nil, fmt.Errorf("krylov: operator order %d must be positive: %w", a.Dim(), ErrDim)
	}
	res := new(Result)
	err := engine.Solve(k, engine.NewWorkspace(a.Dim(), o.Pool), a, b, o, res)
	return res, err
}

// CG solves A x = b for symmetric positive definite A by the standard
// conjugate gradient iteration (Hestenes & Stiefel 1952), in the exact
// form given in section 2 of the paper:
//
//	p(0) = r(0) = b - A u(0)
//	lambda_n = (r(n), r(n)) / (p(n), A p(n))
//	u(n+1)  = u(n) + lambda_n p(n)
//	r(n+1)  = r(n) - lambda_n A p(n)
//	a_{n+1} = (r(n+1), r(n+1)) / (r(n), r(n))
//	p(n+1)  = r(n+1) + a_{n+1} p(n)
func CG(a sparse.Matrix, b vec.Vector, o Options) (*Result, error) {
	return run(NewCGKernel(), a, b, o)
}

// PCG solves A x = b with a symmetric positive definite preconditioner M,
// iterating on the M-inner-product residual (standard preconditioned CG).
func PCG(a sparse.Matrix, m precond.Preconditioner, b vec.Vector, o Options) (*Result, error) {
	o.Precond = m
	return run(NewPCGKernel(), a, b, o)
}

// SteepestDescent solves A x = b by gradient descent with exact line
// search. It converges linearly at rate (kappa-1)/(kappa+1) — far slower
// than CG — and serves as the simplest baseline.
func SteepestDescent(a sparse.Matrix, b vec.Vector, o Options) (*Result, error) {
	return run(NewSDKernel(), a, b, o)
}

// CR solves A x = b by the conjugate residual method, which minimizes
// ||b - A x|| over the Krylov space (CG minimizes the A-norm error).
// It requires only symmetry, not positive definiteness, of A, though
// positive definite systems remain its standard use.
func CR(a sparse.Matrix, b vec.Vector, o Options) (*Result, error) {
	return run(NewCRKernel(), a, b, o)
}
