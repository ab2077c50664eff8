// Package engine is the shared iteration-driver layer every
// shared-memory solver in this repository runs on. The paper's point is
// that CG variants differ only in how they schedule the same few kernel
// steps — SpMV, inner products, vector updates — to hide inner-product
// data dependencies; this package makes that structural fact the
// architecture: each method is a Kernel (Init/Step/Residual/Finish over
// a reusable Workspace), and one driver loop (Solve) owns everything the
// methods used to duplicate — option defaults, dimension validation,
// convergence checks, per-iteration callbacks, history recording, and
// outcome classification.
//
//	      ┌────────────────────────────────────────────┐
//	      │ engine.Solve (the driver)                  │
//	      │   defaults · dim checks · threshold        │
//	      │   loop: Residual ≤ tol? → Step → Tick      │
//	      │   history · callback · Converged · Finish  │
//	      └───────┬────────────────────────────────────┘
//	              │ Kernel contract (Init/Step/Residual/Finish)
//	┌─────────┬───┴─────┬──────────┬──────────┬─────────┐
//	│ krylov  │ krylov  │ pipecg   │ core     │ sstep   │
//	│ cg, pcg │ cr, sd, │ pipecg,  │ vrcg     │ sstep   │
//	│ cgfused │ minres  │ gropp    │ (§5)     │ (C–G)   │
//	└─────────┴─────────┴──────────┴──────────┴─────────┘
//	              │ Workspace (arena, pool, issue/await, phases)
//	      ┌───────┴────────────────────────────────────┐
//	      │ vec.Pool kernels · sparse.PooledMulVec     │
//	      └───────┬────────────────────────────────────┘
//	              │ only when the operator is a RowBlock
//	      ┌───────┴────────────────────────────────────┐
//	      │ block operator: MulVec = halo + local SpMV │
//	      │ sums: post partials → collect (allreduce)  │
//	      └────────────────────────────────────────────┘
//
// Kernels draw every vector from the Workspace arena and keep any
// structured state (Krylov families, Gram buffers) cached across
// solves, so a warm repeated solve on one kernel performs zero heap
// allocations — the property the public solve.Session serves through.
//
// Most Workspace calls are one kernel step and one pass over memory.
// Direction is the exception the paper's own observation licenses: the
// inner products are the only things an iteration must wait for, so
// what lies between two of them — the direction update, the product,
// the leaves of (p,Ap) — is one call, and on an operator that offers its
// rows (RowSweeper: the tuned diagonal format) one blocked
// sweep in which each vector crosses memory once. cg, pcg and sd are two
// such stretches per iteration; cr takes A·r and (r,A·r) the same way. On a pooled workspace, a row block or
// any other operator the same call is the three steps in their old
// order; the bits are the same either way (ARCHITECTURE.md, "What an
// iteration streams").
package engine

import (
	"errors"
	"fmt"
	"math"

	"vrcg/internal/machine"
	"vrcg/internal/vec"
	"vrcg/precond"
)

// ErrIndefinite is returned when an iteration encounters a curvature
// <p, Ap> <= 0, meaning the operator is not positive definite.
var ErrIndefinite = errors.New("krylov: operator not positive definite")

// ErrBreakdown is returned when an iteration produces a non-finite or
// degenerate scalar and cannot continue.
var ErrBreakdown = errors.New("krylov: iteration breakdown")

// CheckCurvature classifies a curvature <p, Ap> (or a step length that
// carries its sign) before the kernel writes any vector with it: nil
// when it is finite and positive, ErrBreakdown when it is NaN or ±Inf,
// ErrIndefinite when it is finite and <= 0. NaN fails every ordered
// comparison, so `c <= 0` alone lets it through to the update, and the
// caller's iterate is NaN by the time a later check notices.
func CheckCurvature(c float64) error {
	switch {
	case math.IsNaN(c) || math.IsInf(c, 0):
		return ErrBreakdown
	case c <= 0:
		return ErrIndefinite
	}
	return nil
}

// ErrBadOption is returned when solver options are invalid for the
// method (negative look-ahead, zero block size, and the like). All
// solver packages wrap it so callers can errors.Is against one sentinel
// regardless of the method.
var ErrBadOption = errors.New("krylov: invalid solver option")

// ErrUnsupportedOperator is returned when a method needs an operator
// capability the supplied type lacks (the normal-equations methods need
// transpose products, sparse.TransposeMulVec).
var ErrUnsupportedOperator = errors.New("krylov: operator type not supported by this method")

// Stats counts the work a solve ran, each item counted by the Workspace
// call that ran it, so no kernel keeps a ledger. Flops follow the
// operand's length (len: a rectangular operator's row-space vectors
// count rows, not Dim):
//
//   - MatVec, MatVecT: one product, 2·nnz flops (2n² for a dense operator).
//   - Dot, Norm2: one inner product, 2·len; DotPair and IssueDotPair two;
//     Dots and IssueDots of m, m — counted at issue.
//   - Axpy, Xpay: one update, 2·len; Combine one a nonzero coefficient
//     (the leaf skips a zero one); Scale one, len flops.
//   - FusedCGUpdate, IssueFusedCGUpdate: two updates and one inner
//     product; IssuePipeUpdate six and two.
//   - Direction: one product, one inner product, and the pending update.
//   - ApplyPrecond: one preconditioner solve, no flops.
//
// The solve loop's ‖b‖ and exit ‖b − Ax‖ norms are its own checks and are not
// counted (the exit product is). A kernel adds to Flops only the scalar
// work no Workspace call sees (vrcg's window recurrence).
type Stats struct {
	MatVecs       int
	InnerProducts int
	VectorUpdates int
	PrecondSolves int
	Flops         int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.MatVecs += other.MatVecs
	s.InnerProducts += other.InnerProducts
	s.VectorUpdates += other.VectorUpdates
	s.PrecondSolves += other.PrecondSolves
	s.Flops += other.Flops
}

// String summarizes the counts.
func (s Stats) String() string {
	return fmt.Sprintf("matvecs=%d dots=%d updates=%d precond=%d flops=%d",
		s.MatVecs, s.InnerProducts, s.VectorUpdates, s.PrecondSolves, s.Flops)
}

// Config is the one option set every engine-backed method consumes; it
// replaces the per-package Options structs the method silos used to
// duplicate. A method ignores fields it has no use for (S does nothing
// to cg), so one Config can drive every kernel in a sweep.
type Config struct {
	// MaxIter bounds the iteration count; 0 means 10*n.
	MaxIter int
	// Tol is the relative residual tolerance ||r|| <= Tol*||b||;
	// 0 means 1e-10.
	Tol float64
	// X0 is the initial guess; nil means the zero vector. It is read,
	// never modified.
	X0 vec.Vector
	// RecordHistory enables Result.History (History[0] is the initial
	// residual norm).
	RecordHistory bool
	// Callback, when non-nil, is invoked after each iteration with the
	// iteration number and current residual norm; returning false stops
	// the solve early (Result.Converged stays false unless the
	// tolerance was already met).
	Callback func(iter int, resNorm float64) bool
	// Pool, when non-nil, routes the hot-path kernels — SpMV, dots,
	// axpys — through the shared worker-pool execution engine. Nil
	// keeps the serial kernels. The Workspace must have been built for
	// the same pool.
	Pool *vec.Pool
	// Precond supplies M^{-1} for the preconditioned methods (pcg).
	// Nil selects the identity.
	Precond precond.Preconditioner

	// K is the look-ahead parameter of the paper's restructured
	// recurrences (vrcg; K >= 0).
	K int
	// ReanchorEvery is the vrcg stabilization interval: every n
	// iterations the scalar windows are recomputed from direct inner
	// products. 0 selects the K-dependent default; negative disables.
	ReanchorEvery int
	// WindowOnlyReanchor restricts vrcg re-anchoring to the scalar
	// windows, skipping the 2k+1 family-rebuild matvecs.
	WindowOnlyReanchor bool
	// ValidateEvery makes vrcg compute diagnostic-only direct inner
	// products every n iterations, populating Result.Drift.
	ValidateEvery int
	// ResidualReplaceEvery makes vrcg replace the recursive residual
	// with the true residual b - A x every n iterations. 0 disables.
	ResidualReplaceEvery int

	// NoScaling disables the Gershgorin spectral scaling of the parcg
	// look-ahead kernel (the A3 ablation: unscaled Gram sequences span
	// ||A||^(4k) and overflow for deep look-ahead).
	NoScaling bool
	// Blocking makes the Workspace evaluate a reduction at issue, on
	// the pool, instead of on background goroutines until it is awaited
	// (reduce.go; bitwise identical). For the pipelined kernel that is
	// the sequential pipecg, for the parcg look-ahead kernel the
	// s-step/Chronopoulos–Gear timing semantics.
	Blocking bool

	// S is the s-step block size (sstep; S >= 1, S = 1 is standard CG).
	S int

	// Restart is the GMRES restart length m (gmres; 0 selects
	// min(30, n)).
	Restart int
}

func (c Config) withDefaults(n int) Config {
	if c.MaxIter == 0 {
		c.MaxIter = 10 * n
	}
	if c.Tol == 0 {
		c.Tol = 1e-10
	}
	return c
}

// DriftStats records how far the vrcg recurrence-produced scalars
// wandered from directly computed inner products (measured only at
// ValidateEvery checkpoints).
type DriftStats struct {
	// MaxRelRR is the maximum relative error of the recurrence (r,r).
	MaxRelRR float64
	// MaxRelPAP is the maximum relative error of the recurrence (p,Ap).
	MaxRelPAP float64
	// Checks is the number of drift checkpoints taken.
	Checks int
}

// Result is the canonical outcome of an engine solve, shared by every
// kernel. Fields a method does not produce stay at their zero values
// (Blocks outside sstep, the drift diagnostics outside vrcg).
type Result struct {
	// X is the final iterate. It aliases kernel workspace storage:
	// valid only until the next solve on the same kernel.
	X vec.Vector
	// Iterations is the number of iterations performed.
	Iterations int
	// Converged reports whether the residual tolerance was met.
	Converged bool
	// ResidualNorm is the final (recursively updated) residual 2-norm.
	ResidualNorm float64
	// TrueResidualNorm is ||b - A x|| computed directly at exit.
	TrueResidualNorm float64
	// History holds per-iteration residual norms when requested
	// (History[0] is the initial residual).
	History []float64
	// Stats counts the work performed.
	Stats Stats

	// Blocks is the number of s-step blocks executed (sstep only).
	Blocks int

	// K echoes the look-ahead parameter used (vrcg, parcg).
	K int
	// Reanchors counts direct window recomputations (vrcg) and anchor
	// batches issued behind the top-power product (parcg).
	Reanchors int
	// Refreshes counts family rebuilds from the live residual and
	// direction: 2k+1 matvecs each (vrcg), 4k each (parcg, scheduled
	// and emergency alike).
	Refreshes int
	// Replacements counts true-residual replacements (vrcg; parcg's
	// guard and audit restarts).
	Replacements int
	// BlockingAnchors counts anchor batches awaited where they were
	// issued, with nothing to hide behind (parcg: start-up, restarts,
	// emergency re-anchors).
	BlockingAnchors int
	// ValidationDots counts diagnostic-only inner products (vrcg).
	ValidationDots int
	// FallbackDots counts direct (r,r) evaluations forced by a
	// non-positive recurrence value (vrcg).
	FallbackDots int
	// Drift holds scalar drift diagnostics (vrcg; see
	// Config.ValidateEvery).
	Drift DriftStats

	// Phases holds the phase latency histograms of a solve on a
	// Workspace with TimePhases on: one observation per driver step of
	// its time in SpMV, reduction wait, and vector updates, measured on
	// actual hardware. Zero (Phases.Empty()) otherwise.
	Phases PhaseSet

	// Clocks is the simulated parallel-time trajectory of the
	// machine-model methods (parcg family, instrumented machine mode):
	// Clocks[i] is the machine MaxClock after iteration i+1.
	Clocks []float64
	// Machine holds the simulated machine's communication totals
	// (parcg family only).
	Machine machine.Stats
}

// PerIterTime is the steady-state parallel time per iteration of a
// simulated-machine solve, machine.PerIterTime of its Clocks: NaN for
// the shared-memory methods, which have none, or fewer than two
// iterations.
func (r *Result) PerIterTime() float64 { return machine.PerIterTime(r.Clocks) }

// TotalTime is the final simulated machine clock of a machine-model
// solve, start-up included: NaN for the shared-memory methods.
func (r *Result) TotalTime() float64 { return machine.TotalTime(r.Clocks) }
