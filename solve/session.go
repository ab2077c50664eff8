package solve

import (
	"fmt"
)

// Session is a prepared (method, operator, options) triple, the
// amortized serving path for repeated solves against one system: the
// method is resolved, the options are parsed, and the solver workspace
// is owned once, so Session.Solve is cheap to call per right-hand side.
// For every method a steady-state Session.Solve performs zero heap
// allocations — the Result itself is session-owned and reused.
//
// Consequently a Session is NOT safe for concurrent Solve calls, and
// both Result.X and the *Result returned by Solve are valid only until
// the next Solve on the same Session (Fork sessions for concurrency, or
// use Batch, which forks internally).
type Session struct {
	method string
	op     Operator
	opts   []Option
	cfg    *config
	solver *Solver

	// res is the reused result of the zero-allocation fast path;
	// canceled/stopped are the session-owned callback flags (fields, not
	// stack variables, so the prebuilt callback closure never forces a
	// per-solve heap allocation).
	res      Result
	canceled bool
	stopped  bool
	cb       func(iter int, resNorm float64) bool
}

// NewSession prepares a session running the named method against a with
// the given base options. The options are resolved once; per-call
// extras can still be passed to Session.Solve (at the cost of the
// ordinary option-parsing path).
func NewSession(method string, a Operator, opts ...Option) (*Session, error) {
	if a == nil || a.Dim() <= 0 {
		return nil, fmt.Errorf("solve: NewSession requires an operator with positive order: %w", ErrBadOption)
	}
	solver, err := New(method)
	if err != nil {
		return nil, err
	}
	s := &Session{
		method: method,
		op:     a,
		opts:   append([]Option(nil), opts...),
		solver: solver,
	}
	s.cfg = newConfig(s.opts)
	s.cb = s.cfg.callback(&s.canceled, &s.stopped)
	return s, nil
}

// Method returns the registry name the session was prepared for.
func (s *Session) Method() string { return s.method }

// Operator returns the prepared operator.
func (s *Session) Operator() Operator { return s.op }

// Dim returns the operator order — the length every right-hand side
// must have.
func (s *Session) Dim() int { return s.op.Dim() }

// Fork returns an independent session with the same method, operator,
// and base options but its own solver and workspace, for use from
// another goroutine. The operator is shared (operators are read-only
// during solves); everything mutable is per-fork.
func (s *Session) Fork() (*Session, error) {
	return NewSession(s.method, s.op, s.opts...)
}

// Solve runs the prepared method on A x = b. With no extra options the
// call reuses the session's resolved configuration and its Result —
// zero heap allocations in steady state. Extra options are merged after
// the base options through the ordinary parsing path.
//
// The returned Result (and its X) is valid until the next Solve on this
// session; clone what must outlive it.
func (s *Session) Solve(b []float64, extra ...Option) (*Result, error) {
	if len(b) != s.op.Dim() {
		return nil, fmt.Errorf("solve: session operator order %d but rhs length %d: %w",
			s.op.Dim(), len(b), ErrDim)
	}
	if len(extra) > 0 {
		all := make([]Option, 0, len(s.opts)+len(extra))
		all = append(all, s.opts...)
		all = append(all, extra...)
		return s.solver.Solve(s.op, b, all...)
	}
	if err := s.cfg.preflight(s.method); err != nil {
		return nil, err
	}
	s.canceled, s.stopped = false, false
	err := s.solver.solveInto(&s.res, s.op, b, s.cfg, s.cb)
	return finish(s.cfg, &s.res, err, s.canceled, s.stopped)
}
