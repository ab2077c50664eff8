package engine

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"vrcg/internal/vec"
	"vrcg/sparse"
)

// Kernel is the per-method iteration contract: the four hooks a CG
// variant implements so the shared driver can run it. A kernel is a
// long-lived object — it is reused across solves and may cache
// structured state (Krylov families, Gram buffers) between them, keyed
// on whatever invalidates that state (order, pool, method parameters).
type Kernel interface {
	// Name returns the method name, used in driver error messages.
	Name() string
	// Init binds the kernel to A x = b under r.Cfg (defaults already
	// resolved), performs the method's start-up work on the (warm)
	// workspace r.Ws, sets r.Res.X, and returns the initial residual
	// norm, which the driver records as History[0].
	Init(r *Run) (resNorm float64, err error)
	// Residual returns the current residual-norm estimate. Methods
	// whose recurrence can drift (vrcg) sharpen the estimate with a
	// direct inner product before the driver trusts it for a
	// convergence decision.
	Residual(r *Run) float64
	// Step advances the iteration by one step — one block for blocked
	// methods — reporting each completed iteration through r.Tick (or
	// the finer-grained Record/Callback helpers). A returned error
	// (wrapping ErrIndefinite/ErrBreakdown) aborts the solve.
	Step(r *Run) error
	// Finish runs after the loop on the success path: it computes the
	// true residual norm and publishes any method-specific diagnostics
	// into r.Res.
	Finish(r *Run)
}

// Run is the per-solve state the driver and kernel share: the bound
// system, the resolved configuration, the workspace, and the outcome
// being accumulated. It lives inside the Workspace (not on the driver's
// stack) so handing it to kernels through the interface never forces a
// per-solve heap allocation.
type Run struct {
	A sparse.Matrix
	// AT provides transpose products Aᵀ*x when the operator supports
	// them (captured before format tuning, since tuned formats may not).
	// Nil otherwise; kernels that need it (cgnr, lsqr) fail Init with
	// ErrUnsupportedOperator when it is missing.
	AT  sparse.TransposeMulVec
	B   vec.Vector
	Cfg Config
	Res *Result
	Ws  *Workspace
	// Threshold is the absolute convergence threshold Tol*||b||.
	Threshold float64

	stopped bool
	// phaseTime accumulates the timed Workspace calls of the step in
	// progress (Workspace.TimePhases); observePhases publishes it.
	phaseTime [NumPhases]time.Duration
}

// Record appends a residual norm to the history when recording is
// enabled (into the workspace-owned slab, so steady state is
// allocation-free once capacity is reached).
func (r *Run) Record(resNorm float64) {
	if r.Cfg.RecordHistory {
		r.Ws.history = append(r.Ws.history, resNorm)
	}
}

// Callback invokes the configured per-iteration callback, unless the
// solve is already stopping. A false return from the callback stops the
// driver loop after the current step; Callback reports whether the
// solve should continue.
func (r *Run) Callback(iter int, resNorm float64) bool {
	if r.stopped {
		return false
	}
	if r.Cfg.Callback != nil && !r.Cfg.Callback(iter, resNorm) {
		r.stopped = true
		return false
	}
	return true
}

// Tick reports one completed iteration: it advances the iteration
// count, records resNorm, and runs the callback. Blocked methods call
// it once per iteration inside a block.
func (r *Run) Tick(resNorm float64) {
	r.Res.Iterations++
	r.Record(resNorm)
	r.Callback(r.Res.Iterations, resNorm)
}

// Stop ends the driver loop after the current step without error and
// without marking convergence (the driver still re-checks the residual
// at exit). Kernels use it for structural termination, e.g. a MINRES
// Krylov-space exhaustion.
func (r *Run) Stop() { r.stopped = true }

// Stopped reports whether a callback or the kernel requested an early
// stop.
func (r *Run) Stopped() bool { return r.stopped }

// MatVec computes dst = A x on the workspace.
func (r *Run) MatVec(dst, x vec.Vector) { r.Ws.MatVec(r.A, dst, x) }

// ResidualInto computes dst = b − A x with one product.
func (r *Run) ResidualInto(dst, x vec.Vector) {
	r.MatVec(dst, x)
	vec.Sub(dst, r.B, dst)
}

// InitialIterate loads X0 into x, publishes it as Res.X, and forms the
// initial residual res = b − A x — the start-up the kernels share.
// Without an X0, x is zero and res is b: no product by a zero vector.
// res has the operator's row count, x its column count; for square
// operators the two coincide.
func (r *Run) InitialIterate(x, res vec.Vector) {
	r.Res.X = x
	if r.Cfg.X0 == nil {
		vec.Zero(x)
		vec.Copy(res, r.B)
		return
	}
	vec.Copy(x, r.Cfg.X0)
	r.ResidualInto(res, x)
}

// TrueResidual computes ‖b − A x‖ into scratch (row space) and
// publishes it as Res.TrueResidualNorm — the exit step the kernels
// share. The product is counted; the norm is the solve loop's own check
// and is not (Stats).
func (r *Run) TrueResidual(scratch, x vec.Vector) {
	r.ResidualInto(scratch, x)
	r.Res.TrueResidualNorm = r.Ws.norm2(scratch)
}

// errInFlight is a kernel contract violation: Init or Step returned
// between a reduction's issue and its await. Nothing may be in flight
// between driver steps — the convergence test, callbacks and the next
// solve all assume the kernel's vectors are quiescent.
var errInFlight = errors.New("kernel returned with a reduction still in flight")

// settle ends one kernel call: a reduction left in flight is completed,
// so the workspace stays usable, and reported as an error. A row
// block's transport failure outranks whatever the kernel made of the
// scalars it was left with: the failure is the operator's own error,
// never a breakdown.
func (r *Run) settle(k Kernel, call string, err error) error {
	if r.Ws.inFlight {
		r.Ws.Await()
		if err == nil {
			err = fmt.Errorf("%s: %s: %w", k.Name(), call, errInFlight)
		}
	}
	if r.Ws.block != nil {
		if terr := r.Ws.block.Err(); terr != nil {
			return terr
		}
	}
	return err
}

// observePhases publishes the finished step's phase times as one
// observation per phase.
func (r *Run) observePhases() {
	if r.Ws.now == nil {
		return
	}
	for p, d := range r.phaseTime {
		r.Res.Phases.Observe(Phase(p), d)
	}
	r.phaseTime = [NumPhases]time.Duration{}
}

// Solve is the one driver loop every engine-backed method runs under.
// It owns what the method silos used to each reimplement: dimension
// validation, option defaults, the convergence threshold, the
// iteration/convergence loop, history recording, callback dispatch, the
// per-step phase observations, and the final Converged classification.
// The kernel owns only the method's numerics.
//
// On a kernel error the partial Result (including recorded history) is
// left populated and the error returned; ResidualNorm and
// TrueResidualNorm are set only on the success path, mirroring the
// historical per-method behavior.
func Solve(k Kernel, ws *Workspace, a sparse.Matrix, b vec.Vector, cfg Config, res *Result) error {
	// rows×cols: the rhs lives in the row space, the solution (and the
	// workspace arena) in the column space. Square operators report
	// rows == cols == Dim, so nothing changes for them.
	rows, cols := sparse.Dims(a)
	*res = Result{}
	if len(b) != rows {
		return fmt.Errorf("%s: operator has %d rows but rhs length %d: %w", k.Name(), rows, len(b), sparse.ErrDim)
	}
	if cfg.X0 != nil && len(cfg.X0) != cols {
		return fmt.Errorf("%s: x0 length %d for %d columns: %w", k.Name(), len(cfg.X0), cols, sparse.ErrDim)
	}
	if ws == nil || ws.Dim() != cols {
		wsDim := 0
		if ws != nil {
			wsDim = ws.Dim()
		}
		return fmt.Errorf("%s: workspace order %d but operator has %d columns: %w", k.Name(), wsDim, cols, sparse.ErrDim)
	}
	cfg = cfg.withDefaults(cols)
	ws.history = ws.history[:0]

	// Capture the transpose-product capability before tuning: tuned
	// formats (DIA, SELL) do not carry it, and the normal-equations
	// kernels read it off the Run. Likewise whether the operator is one
	// row block of a larger one, which is what makes every sum below —
	// ‖b‖ first — a sum over all the blocks.
	at, _ := a.(sparse.TransposeMulVec)
	ws.block, _ = a.(RowBlock)

	// Format auto-selection: run the solve's matrix-vector products on
	// the fastest equivalent operator (diagonal storage for a banded
	// CSR of any size, else a SELL-C-σ conversion of a large one). The
	// decision is cached on the matrix, so warm sessions pay nothing,
	// and the tuned operator is bitwise-identical, so results do not
	// depend on it.
	a = sparse.TuneMulVec(a)
	ws.oneP = runtime.GOMAXPROCS(0) == 1
	ws.sweep = nil
	if ws.pool == nil && ws.block == nil {
		ws.sweep, _ = a.(RowSweeper)
	}

	bnorm := ws.norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	run := &ws.run
	*run = Run{A: a, AT: at, B: b, Cfg: cfg, Res: res, Ws: ws, Threshold: cfg.Tol * bnorm}
	ws.stats, ws.mvFlops = Stats{}, matVecFlops(a)
	defer func() { res.Stats.Add(ws.stats) }() // and the kernel's scalar flops

	rn, err := k.Init(run)
	if err = run.settle(k, "Init", err); err != nil {
		return err
	}
	run.phaseTime = [NumPhases]time.Duration{} // start-up is not a step
	run.Record(rn)

	for res.Iterations < cfg.MaxIter && !run.stopped {
		rn = k.Residual(run)
		if rn <= run.Threshold {
			res.Converged = true
			break
		}
		err := run.settle(k, "Step", k.Step(run))
		run.observePhases()
		if err != nil {
			run.publishHistory()
			return err
		}
	}
	if !res.Converged {
		rn = k.Residual(run)
		if rn <= run.Threshold {
			res.Converged = true
		}
	}
	res.ResidualNorm = rn
	k.Finish(run)
	run.publishHistory()
	return run.settle(k, "Finish", nil)
}

// SolveOnce runs kernel k once on a fresh workspace sized by the
// operator's column count: the one-shot form of Solve, for callers that
// do not solve repeatedly. An operator of order <= 0 is rejected with
// sparse.ErrDim.
func SolveOnce(k Kernel, a sparse.Matrix, b vec.Vector, cfg Config) (*Result, error) {
	_, cols := sparse.Dims(a)
	if cols <= 0 {
		return nil, fmt.Errorf("%s: operator order %d must be positive: %w", k.Name(), cols, sparse.ErrDim)
	}
	res := new(Result)
	err := Solve(k, NewWorkspace(cols, cfg.Pool), a, b, cfg, res)
	return res, err
}

// publishHistory hands the workspace-owned history slab to the result
// when recording was requested.
func (r *Run) publishHistory() {
	if r.Cfg.RecordHistory {
		r.Res.History = r.Ws.history
	}
}
