package solve

import (
	"fmt"

	"vrcg/internal/engine"
	"vrcg/internal/machine"
	"vrcg/internal/parcg"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

// Solver is one registered method, ready to run: its engine kernel plus
// a reusable workspace, rebuilt only when the system order or pool
// changes, so repeated Solve calls against operators of the same order
// allocate nothing in steady state. Consequently a Solver is NOT safe
// for concurrent Solve calls (use one Solver per goroutine; they are
// cheap), and Result.X may alias solver-owned storage — it is valid
// until the next Solve on the same Solver; Clone it to keep it longer.
type Solver struct {
	*method
	kernel engine.Kernel

	ws *engine.Workspace
	er engine.Result
	dr Drift
	ph PhaseSet
}

// Name returns the registry name the solver was built under.
func (s *Solver) Name() string { return s.name }

func (s *Solver) workspace(n int, pool *vec.Pool) *engine.Workspace {
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
	return engine.Config{
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
}

// fill maps the engine result onto the canonical Result in place. The
// Drift and Phases blocks are solver-owned and reused, so the Session
// path stays allocation-free.
func (s *Solver) fill(res *Result) {
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

// Solve runs the method on A x = b. The returned Result is non-nil
// whenever iterations were performed, even when err is non-nil
// (ErrNotConverged in particular always carries a usable Result).
func (s *Solver) Solve(a Operator, b []float64, opts ...Option) (*Result, error) {
	c := newConfig(opts)
	if err := c.preflight(s.name); err != nil {
		return nil, err
	}
	var canceled, stopped bool
	res := &Result{}
	err := s.solveInto(res, a, b, c, c.callback(&canceled, &stopped))
	return finish(c, res, err, canceled, stopped)
}

// solveInto runs the method with a resolved config and a prebuilt
// callback, writing into a caller-owned Result: with both reused, as a
// Session reuses them, a warm solve allocates nothing.
func (s *Solver) solveInto(res *Result, a Operator, b []float64, c *config, cb func(int, float64) bool) error {
	// The workspace lives in the operator's column space: for the
	// rectangular least-squares methods the solution is cols-long while
	// b is rows-long, and for square operators the two coincide.
	_, cols := sparse.Dims(a)
	ec := c.engineConfig(cb)
	ec.Blocking = ec.Blocking || s.blocking
	err := engine.Solve(s.kernel, s.workspace(cols, c.pool), a, b, ec, &s.er)
	s.fill(res)
	if s.post != nil {
		if perr := s.post(s, c, a, res); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// preflight rejects a solve whose context is already dead, before any
// work is done.
func (c *config) preflight(name string) error {
	if c.ctx != nil && c.ctx.Err() != nil {
		return fmt.Errorf("solve: %s not started: %w", name, c.ctx.Err())
	}
	return nil
}

// finish applies the shared exit policy every solve funnels through:
// internal errors pass straight out (they already wrap a sentinel from
// errors.go), cancellation wraps ctx.Err(), an un-converged run that
// was not deliberately stopped by a monitor wraps ErrNotConverged, and
// a monitor stop is a clean return. res is always returned, so callers
// inspecting a wrapped error still see the partial outcome.
func finish(c *config, res *Result, err error, canceled, stopped bool) (*Result, error) {
	if err != nil {
		return res, err
	}
	if res.Converged {
		// A cancellation that lands on the converging iteration does
		// not demote the solve: the solution is done.
		return res, nil
	}
	if canceled {
		return res, fmt.Errorf("solve: %s canceled at iteration %d: %w",
			res.Method, res.Iterations, c.ctx.Err())
	}
	if !stopped {
		return res, fmt.Errorf("solve: %s stopped after %d iterations with residual %.3e: %w",
			res.Method, res.Iterations, res.ResidualNorm, ErrNotConverged)
	}
	return res, nil
}

// parcgReplay is the parcg family's machine mode: WithProcessors /
// WithMachineConfig layer the simulated-machine cost model over the
// real solve as a monitor, charging the method's schedule for the
// observed iteration count (parcg.Replay) and filling Result.Clocks and
// Result.Machine. The replay needs the sparsity partition, so it
// requires a *sparse.CSR operator; the real solve itself takes any
// Operator.
func parcgReplay(s *Solver, c *config, a Operator, res *Result) error {
	if !c.machineSet && !c.procsSet {
		return nil
	}
	csr, ok := a.(*sparse.CSR)
	if !ok {
		return fmt.Errorf("solve: %s machine mode partitions by sparsity and needs a *sparse.CSR operator, got %T: %w",
			s.name, a, ErrUnsupportedOperator)
	}
	cfg := c.machineCfg
	if !c.machineSet {
		cfg = machine.DefaultConfig(c.procs)
	}
	if cfg.P < 1 || cfg.P > a.Dim() {
		return fmt.Errorf("solve: %s with P=%d processors for an order-%d system: %w",
			s.name, cfg.P, a.Dim(), ErrBadOption)
	}
	parcg.Replay(cfg, csr, s.name, c.blocking, &s.er)
	res.Clocks = s.er.Clocks
	res.Machine = &s.er.Machine
	return nil
}
