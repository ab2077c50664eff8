package solve

import (
	"errors"

	"vrcg/internal/engine"
	"vrcg/sparse"
)

// ErrNotConverged is returned (wrapped with per-method detail: method
// name, iterations spent, final residual) when a solve exhausts its
// iteration budget without meeting the tolerance. The Result returned
// alongside it is valid — callers that consider a partial solve
// acceptable test errors.Is(err, ErrNotConverged) and keep going.
var ErrNotConverged = errors.New("solve: did not converge within the iteration limit")

// ErrUnknownMethod is returned by New for names missing from the
// registry.
var ErrUnknownMethod = errors.New("solve: unknown method")

// ErrUnsupportedOperator is returned when a method needs an operator
// capability the caller's type lacks (the distributed methods need
// *sparse.CSR to build their halo partition; the least-squares methods
// need transpose products, sparse.TransposeMulVec). Re-exported from
// the engine so internal kernels and public wrappers share one
// sentinel.
var ErrUnsupportedOperator = engine.ErrUnsupportedOperator

// Sentinels of the internal engine, re-exported so callers
// can errors.Is against this package alone. Every error a registered
// method returns wraps one of the sentinels in this file, except
// cancellation: a solve stopped through WithContext wraps ctx.Err()
// (context.Canceled or context.DeadlineExceeded).
var (
	// ErrIndefinite: the operator is not positive definite (a
	// curvature <p, Ap> <= 0 was encountered).
	ErrIndefinite = engine.ErrIndefinite
	// ErrBreakdown: an iteration produced a non-finite or degenerate
	// scalar and cannot continue.
	ErrBreakdown = engine.ErrBreakdown
	// ErrBadOption: solver options invalid for the method (negative
	// look-ahead, zero block size, ...).
	ErrBadOption = engine.ErrBadOption
	// ErrDim: dimension mismatch between operator, right-hand side,
	// initial guess, or preconditioner.
	ErrDim = sparse.ErrDim
)
