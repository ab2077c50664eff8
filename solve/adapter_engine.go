package solve

import (
	"vrcg/internal/core"
	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/internal/pipecg"
	"vrcg/internal/sstep"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

// engineSolver is the one adapter every shared-memory method runs
// through: a registered engine kernel plus a reusable workspace,
// rebuilt only when the system order or pool changes, so steady-state
// repeated solves allocate nothing. Because the adapter is generic over
// the kernel contract, every engine-backed method uniformly gains the
// Session zero-allocation fast path (solveInto) and participates in
// Batch fan-out with per-worker forked workspaces — there are no
// per-silo adapters left to fall behind.
type engineSolver struct {
	name   string
	kernel engine.Kernel
	// syncs estimates the blocking global-synchronization points of the
	// finished schedule (Result.Syncs) — the per-method quantity the
	// paper's comparison is about.
	syncs func(er *engine.Result) int
	// drift marks the methods that publish Result.Drift (vrcg, parcg).
	drift bool
	// phases marks the methods that publish Result.Phases (the
	// real-parallel parcg family); their workspace times its phases.
	phases bool
	// blocking marks a schedule that evaluates an issued reduction at
	// issue whatever the options say (pipecg; WithBlocking asks the same
	// of parcg and parcg-pipe per solve).
	blocking bool
	// post, when non-nil, runs after fill on both solve paths — the
	// parcg family's machine-mode replay hook. A returned error stands
	// in for the kernel's when the kernel itself succeeded.
	post func(s *engineSolver, c *config, a Operator, res *Result) error

	ws *engine.Workspace
	er engine.Result
	dr Drift
	ph PhaseSet
}

func (s *engineSolver) Name() string { return s.name }

func (s *engineSolver) workspace(n int, pool *vec.Pool) *engine.Workspace {
	if n <= 0 {
		return nil // engine.Solve rejects it with ErrDim
	}
	if s.ws == nil || s.ws.Dim() != n || s.ws.Pool() != pool {
		s.ws = engine.NewWorkspace(n, pool)
		if s.phases {
			s.ws.TimePhases()
		}
	}
	return s.ws
}

// engineConfig maps the resolved option set onto the engine's shared
// Config. Methods ignore fields they have no use for, so one mapping
// serves all of them.
func (c *config) engineConfig(cb func(int, float64) bool) engine.Config {
	ec := engine.Config{
		Tol:                  c.tol,
		MaxIter:              c.maxIter,
		X0:                   c.x0,
		RecordHistory:        c.history,
		Callback:             cb,
		Pool:                 c.pool,
		K:                    c.lookahead,
		ReanchorEvery:        c.reanchorEvery,
		WindowOnlyReanchor:   c.windowOnly,
		ValidateEvery:        c.validateEvery,
		ResidualReplaceEvery: c.resReplace,
		NoScaling:            c.noScaling,
		Blocking:             c.blocking,
		S:                    c.blockSize,
		Restart:              c.restart,
		Precond:              c.precond,
	}
	return ec
}

func (s *engineSolver) solve(a Operator, b []float64, c *config, cb func(int, float64) bool) error {
	// The workspace lives in the operator's column space: for the
	// rectangular least-squares methods the solution is cols-long while
	// b is rows-long, and for square operators the two coincide.
	_, cols := sparse.Dims(a)
	ec := c.engineConfig(cb)
	ec.Blocking = ec.Blocking || s.blocking
	return engine.Solve(s.kernel, s.workspace(cols, c.pool), a, b, ec, &s.er)
}

// fill maps the engine result onto the canonical Result in place (the
// shape shared by Solve and the Session fast path). The vrcg Drift
// block is adapter-owned and reused, so the fast path stays
// allocation-free.
func (s *engineSolver) fill(res *Result) {
	er := &s.er
	*res = Result{
		Method:           s.name,
		X:                er.X,
		Iterations:       er.Iterations,
		Converged:        er.Converged,
		ResidualNorm:     er.ResidualNorm,
		TrueResidualNorm: er.TrueResidualNorm,
		History:          er.History,
		Stats:            er.Stats,
		Blocks:           er.Blocks,
		Syncs:            s.syncs(er),
	}
	if s.drift {
		s.dr = Drift{
			MaxRelRR:       er.Drift.MaxRelRR,
			MaxRelPAP:      er.Drift.MaxRelPAP,
			Checks:         er.Drift.Checks,
			Reanchors:      er.Reanchors,
			Refreshes:      er.Refreshes,
			Replacements:   er.Replacements,
			FallbackDots:   er.FallbackDots,
			ValidationDots: er.ValidationDots,
		}
		res.Drift = &s.dr
	}
	if s.phases && !er.Phases.Empty() {
		s.ph = er.Phases
		res.Phases = &s.ph
	}
}

// runPost invokes the optional post hook, letting its error stand when
// the solve itself produced none.
func (s *engineSolver) runPost(c *config, a Operator, res *Result, err error) error {
	if s.post == nil {
		return err
	}
	if perr := s.post(s, c, a, res); perr != nil && err == nil {
		return perr
	}
	return err
}

func (s *engineSolver) Solve(a Operator, b []float64, opts ...Option) (*Result, error) {
	c := newConfig(opts)
	if err := c.preflight(s.name); err != nil {
		return nil, err
	}
	var canceled, stopped bool
	err := s.solve(a, b, c, c.callback(&canceled, &stopped))
	res := &Result{}
	s.fill(res)
	err = s.runPost(c, a, res, err)
	return finish(c, res, err, canceled, stopped)
}

// solveInto is the Session zero-allocation fast path, uniform across
// every engine-backed method: a pre-resolved config, a prebuilt
// callback, and a caller-owned Result, so a warm repeated solve
// allocates nothing.
func (s *engineSolver) solveInto(res *Result, a Operator, b []float64, c *config, cb func(int, float64) bool) (bool, error) {
	err := s.solve(a, b, c, cb)
	s.fill(res)
	err = s.runPost(c, a, res, err)
	return true, err
}

// registerEngine registers one engine kernel under the generic adapter
// with the conservative zero Caps (square SPD operators only); the
// general-operator methods register through registerEngineCaps.
func registerEngine(name, summary string, kf func() engine.Kernel, syncs func(*engine.Result) int, drift bool) {
	registerEngineCaps(name, summary, Caps{}, kf, syncs, drift)
}

func init() {
	// The classic iterations block on every inner product: each one is
	// a completed global reduction on the machine model.
	blocking := func(er *engine.Result) int { return er.Stats.InnerProducts }
	sharded := Caps{Sharded: true}

	registerEngineCaps("cg", "standard Hestenes-Stiefel CG (paper §2), workspace-backed",
		sharded, krylov.NewCGKernel, blocking, false)
	registerEngineCaps("cgfused", "a second name for cg, kept for wire compatibility, workspace-backed",
		sharded, krylov.NewCGKernel, blocking, false)
	registerEngineCaps("pcg", "preconditioned CG (WithPreconditioner; identity default), workspace-backed",
		sharded, krylov.NewPCGKernel, blocking, false)
	registerEngine("cr", "conjugate residuals (minimizes ||b - A x||), workspace-backed",
		krylov.NewCRKernel, blocking, false)
	registerEngine("sd", "steepest descent with exact line search (baseline), workspace-backed",
		krylov.NewSDKernel, blocking, false)
	registerEngine("minres", "MINRES (symmetric indefinite baseline), workspace-backed",
		krylov.NewMINRESKernel, blocking, false)

	// The pipelined successors wait on one (pipecg) or two (gropp)
	// overlappable reductions per iteration, plus start-up. Under these
	// names they are the sequential schedules of their kernels: an
	// issued reduction is evaluated at issue (parcg-pipe overlaps the
	// Ghysels–Vanroose one; a fleet overlaps both with the wire).
	pipelined := func(name, summary string, kf func() engine.Kernel, syncs func(*engine.Result) int) {
		RegisterCaps(name, summary, sharded, func() Solver {
			return &engineSolver{name: name, kernel: kf(), blocking: true, syncs: syncs}
		})
	}
	pipelined("pipecg", "Ghysels-Vanroose pipelined CG (one fused reduction/iter), workspace-backed",
		pipecg.NewGVKernel, func(er *engine.Result) int { return er.Iterations + 1 })
	pipelined("gropp", "Gropp asynchronous CG (two overlapped reductions/iter), workspace-backed",
		pipecg.NewGroppKernel, func(er *engine.Result) int { return 2*er.Iterations + 1 })

	// The per-iteration window tops ride the k-deep pipeline; the
	// schedule only blocks at start-up and at each stabilization or
	// drift-fallback event.
	registerEngine("vrcg", "the paper's restructured look-ahead CG (WithLookahead k, §5 recurrences), workspace-backed",
		core.NewKernel, func(er *engine.Result) int { return 1 + er.Reanchors + er.Replacements + er.FallbackDots }, true)

	// One batched Gram reduction plus one residual resync per block,
	// after the start-up (r,r).
	registerEngineCaps("sstep", "Chronopoulos-Gear s-step CG (WithBlockSize s, batched reductions), workspace-backed",
		sharded, sstep.NewKernel, func(er *engine.Result) int { return 2*er.Blocks + 1 }, false)
}
