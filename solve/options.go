package solve

import (
	"context"

	"vrcg/internal/machine"
	"vrcg/sparse"
)

// Option configures a single Solve call. Options apply uniformly across
// methods; a method ignores options it has no use for, so one option
// set can drive every registered method in a sweep. Each option
// documents which methods consume it.
type Option func(*config)

// config is the resolved option set one Solve call runs under.
type config struct {
	tol     float64
	maxIter int
	x0      []float64
	pool    *sparse.Pool
	precond Preconditioner
	history bool
	ctx     context.Context
	monitor Monitor

	lookahead     int // vrcg / parcg K
	reanchorEvery int
	windowOnly    bool
	validateEvery int
	resReplace    int
	blockSize     int // sstep S
	restart       int // gmres m

	batchWorkers int // Batch/SolveMany fan-out width

	procs      int  // parcg machine-mode processor count
	procsSet   bool // WithProcessors given: opt into the machine replay
	machineCfg machine.Config
	machineSet bool
	blocking   bool
	noScaling  bool
}

func newConfig(opts []Option) *config {
	c := &config{
		lookahead: 2,
		blockSize: 4,
		procs:     8,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// WithTol sets the relative residual tolerance ||r|| <= tol*||b||.
// Zero selects the engine default 1e-10. All methods.
func WithTol(tol float64) Option { return func(c *config) { c.tol = tol } }

// WithMaxIter bounds the iteration count. Zero selects the engine
// default 10n. All methods.
func WithMaxIter(n int) Option { return func(c *config) { c.maxIter = n } }

// WithX0 sets the initial guess (nil means the zero vector). The
// vector is not modified. All methods.
func WithX0(x0 []float64) Option { return func(c *config) { c.x0 = x0 } }

// WithPool routes the solver's hot-path kernels — SpMV, dots, axpys —
// through the shared worker-pool execution engine (sparse.NewPool or
// sparse.DefaultPool). Nil keeps the serial kernels. Workspace-backed
// solvers rebuild their workspace when the pool changes between calls.
// Consumed by every engine-backed method, the parcg family included
// (its background reduction goroutine composes with the pool: pooled
// and serial reductions are bitwise-identical).
func WithPool(p *sparse.Pool) Option { return func(c *config) { c.pool = p } }

// WithPreconditioner supplies M^{-1} for "pcg". Unset defaults to the
// identity (plain CG arithmetic with PCG's operation count).
func WithPreconditioner(m Preconditioner) Option { return func(c *config) { c.precond = m } }

// WithHistory records per-iteration residual norms into
// Result.History (History[0] is the initial residual). All methods.
func WithHistory(record bool) Option { return func(c *config) { c.history = record } }

// WithContext makes the solve cancelable: the context is polled every
// iteration (every s-step block for "sstep", which finishes the block
// in flight before stopping) and the solve returns a partial Result
// with an error wrapping ctx.Err(). All methods.
func WithContext(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

// WithMonitor attaches a per-iteration observer; returning false from
// Observe stops the solve early, without error. Shared-memory methods.
func WithMonitor(m Monitor) Option { return func(c *config) { c.monitor = m } }

// WithBatchWorkers pins the number of concurrent worker sessions
// Batch/SolveMany fan right-hand sides out to (each worker owns one
// forked solver and workspace, and takes right-hand sides round-robin).
// Zero or negative selects the default, min(len(B), GOMAXPROCS).
// Consumed only by Batch and SolveMany.
func WithBatchWorkers(n int) Option { return func(c *config) { c.batchWorkers = n } }

// WithLookahead sets the look-ahead parameter k of the paper's
// restructured recurrences: "vrcg" (k >= 0; the §5 window depth,
// default 2) and "parcg" (k >= 1; the anchor pipeline depth, cg's
// iteration count up to k = 3 on the operators measured).
func WithLookahead(k int) Option {
	return func(c *config) { c.lookahead = k }
}

// WithReanchorEvery sets the stabilization interval of "vrcg": every n
// iterations the scalar windows are recomputed from direct inner
// products. 0 selects the k-dependent default; negative disables
// re-anchoring (the paper's pure exact-arithmetic recurrences).
func WithReanchorEvery(n int) Option { return func(c *config) { c.reanchorEvery = n } }

// WithWindowOnlyReanchor restricts "vrcg" re-anchoring to the scalar
// windows, skipping the 2k+1 family-rebuild matvecs — the paper-pure
// cost profile of exactly one matvec per iteration.
func WithWindowOnlyReanchor(on bool) Option { return func(c *config) { c.windowOnly = on } }

// WithValidateEvery makes "vrcg" compute diagnostic-only direct inner
// products every n iterations, populating Result.Drift.
func WithValidateEvery(n int) Option { return func(c *config) { c.validateEvery = n } }

// WithResidualReplaceEvery makes "vrcg" replace the recursive residual
// with the true residual b - A x every n iterations (van der Vorst–Ye
// stabilization). 0 disables.
func WithResidualReplaceEvery(n int) Option { return func(c *config) { c.resReplace = n } }

// WithBlockSize sets the block size s of "sstep" (s >= 1; s = 1 is
// standard CG). Default 4, the practical ceiling of the monomial
// basis.
func WithBlockSize(s int) Option { return func(c *config) { c.blockSize = s } }

// WithRestart sets the restart length m of "gmres" (m >= 1): the
// Krylov basis is rebuilt from the true residual every m inner
// iterations, trading convergence speed for the m+1 basis vectors of
// memory. Zero selects the default min(30, n).
func WithRestart(m int) Option { return func(c *config) { c.restart = m } }

// WithProcessors opts the "parcg*" methods into the instrumented
// machine mode with a P-processor simulated machine
// (machine.DefaultConfig(p)): the real-parallel solve runs unchanged
// and the machine cost model is replayed over its iteration count,
// filling Result.Clocks and Result.Machine. Requires a *sparse.CSR
// operator (the replay partitions by sparsity). Ignored when
// WithMachineConfig supplies a full configuration (its P wins). It
// has no Params counterpart: the machine is not on the wire.
func WithProcessors(p int) Option { return func(c *config) { c.procs = p; c.procsSet = true } }

// WithMachineConfig supplies the full simulated-machine cost model
// (P, message latency alpha, per-word time beta, flop time) for the
// "parcg*" methods' instrumented machine mode — like WithProcessors,
// a monitor layered over the real-parallel solve.
func WithMachineConfig(cfg machine.Config) Option {
	return func(c *config) { c.machineCfg = cfg; c.machineSet = true }
}

// WithBlocking evaluates every issued inner-product reduction at issue
// instead of overlapping it with the work that follows; the arithmetic
// is bitwise unchanged. For "parcg" each anchor's batched reduction
// stalls the pipeline — the s-step (Chronopoulos–Gear) timing
// semantics, the paper's Figure 1 contrast; for "parcg-pipe" the result
// is exactly "pipecg". Methods that overlap nothing ignore it.
func WithBlocking(on bool) Option { return func(c *config) { c.blocking = on } }

// WithSpectralScaling toggles the Gershgorin spectral scaling of
// "parcg" (default on). Disabling it is the A3 ablation: unscaled Gram
// sequences span ||A||^(4k) and overflow for deep look-ahead.
func WithSpectralScaling(on bool) Option { return func(c *config) { c.noScaling = !on } }

// callback folds the context and monitor into the per-iteration
// callback the internal solvers accept, recording why the solve
// stopped so finish can distinguish cancellation from a monitor stop.
// It polls the context's Done channel, an atomic load for the standard
// contexts, where Err takes a mutex that every worker of a Batch
// sharing one context would contend on each iteration.
func (c *config) callback(canceled, stopped *bool) func(int, float64) bool {
	if c.ctx == nil && c.monitor == nil {
		return nil
	}
	return func(iter int, resNorm float64) bool {
		if c.ctx != nil && done(c.ctx) {
			*canceled = true
			return false
		}
		if c.monitor != nil && !c.monitor.Observe(iter, resNorm) {
			*stopped = true
			return false
		}
		return true
	}
}

// done reports whether ctx's Done channel has closed, without blocking.
func done(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
