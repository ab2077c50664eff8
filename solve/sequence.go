package solve

import (
	"context"
	"fmt"

	"vrcg/sparse"
)

// Sequence drives a chain of closely-related solves — the shape of an
// outer optimization loop like point-to-plane ICP, where every outer
// iteration produces a slightly different operator/rhs pair whose
// solution lies near the previous one. It wraps a Session and adds the
// three things that shape needs:
//
//   - Warm starting: each step begins from the previous step's solution
//     (held in a sequence-owned buffer installed once as WithX0), so a
//     converging outer loop sees strictly shrinking iteration counts.
//   - Cheap operator updates: Rescale and UpdateValues mutate the
//     operator's values in place (structure unchanged), so the session's
//     pooled workspace — keyed on order and pool — survives the update
//     instead of being torn down per outer iteration.
//   - Visibility: per-step iteration counts (Steps) make the warm-start
//     payoff measurable, which is what the server's /v1/sequence
//     endpoint reports per step.
//
// Like Session, a Sequence is not safe for concurrent use, and the
// Result returned by Step is valid only until the next Step.
type Sequence struct {
	sess  *Session
	sctx  swapContext // points at each StepContext's context in turn
	x0    []float64   // persistent warm-start buffer, column-space length
	warm  bool
	steps []int
}

// NewSequence prepares a warm-started solve sequence running the named
// method against a. The first Step is a cold start from zero; every
// later Step starts from the previous solution. Extra options merge
// before the sequence's own WithX0 (a caller-supplied WithX0 would be
// overridden — the warm-start buffer is the point of the type) and
// after its swappable per-step context (a caller-supplied WithContext
// still bounds every step, in place of the one given to StepContext).
func NewSequence(method string, a Operator, opts ...Option) (*Sequence, error) {
	_, cols := sparse.Dims(a)
	q := &Sequence{x0: make([]float64, cols)}
	all := append(append([]Option{WithContext(&q.sctx)}, opts...), WithX0(q.x0))
	sess, err := NewSession(method, a, all...)
	if err != nil {
		return nil, err
	}
	q.sess = sess
	return q, nil
}

// Method returns the registry name the sequence was prepared for.
func (q *Sequence) Method() string { return q.sess.Method() }

// Operator returns the prepared operator.
func (q *Sequence) Operator() Operator { return q.sess.Operator() }

// Warm reports whether the next Step starts from a previous solution.
func (q *Sequence) Warm() bool { return q.warm }

// Steps returns the iteration count of every step taken so far (the
// slice is sequence-owned; copy to retain). Steps[0] is the cold start.
func (q *Sequence) Steps() []int { return q.steps }

// Step solves the current system for b, starting from the previous
// step's solution, and records the iteration count. The returned Result
// follows Session.Solve semantics (valid until the next Step; a partial
// result accompanies ErrNotConverged). A partial solution still seeds
// the next warm start — in an outer loop that is exactly the iterate to
// continue from.
func (q *Sequence) Step(b []float64) (*Result, error) {
	return q.StepContext(context.Background(), b)
}

// StepContext is Step under ctx: the solve polls it every iteration, as
// WithContext describes, and a step it stops returns the partial Result
// with an error wrapping ctx.Err(). Such a step is a step like any
// other — counted in Steps, its iterate the next warm start.
func (q *Sequence) StepContext(ctx context.Context, b []float64) (*Result, error) {
	q.sctx.set(ctx)
	res, err := q.sess.Solve(b)
	q.sctx.set(nil)
	if res != nil {
		q.steps = append(q.steps, res.Iterations)
		if len(res.X) == len(q.x0) {
			copy(q.x0, res.X)
			q.warm = true
		}
	}
	return res, err
}

// Reset clears the warm start, so the next Step is cold again. Step
// history is retained.
func (q *Sequence) Reset() {
	for i := range q.x0 {
		q.x0[i] = 0
	}
	q.warm = false
}

// rescaler and valueSetter are the in-place operator-update capabilities
// Rescale and UpdateValues need; sparse.CSR and sparse.Rect provide
// both.
type rescaler interface{ Scale(s float64) }
type valueSetter interface{ SetValues(vals []float64) }

// Rescale multiplies every stored operator value by s in place — the
// cheapest operator update an outer loop performs (a trust-region or
// damping change). The session's workspace and pooled state survive;
// only value-derived caches on the operator itself are invalidated. The
// operator must expose Scale (sparse.CSR and sparse.Rect do); anything
// else fails with ErrUnsupportedOperator.
func (q *Sequence) Rescale(s float64) error {
	r, ok := q.sess.Operator().(rescaler)
	if !ok {
		return fmt.Errorf("solve: sequence operator %T cannot rescale values in place: %w",
			q.sess.Operator(), ErrUnsupportedOperator)
	}
	r.Scale(s)
	return nil
}

// UpdateValues replaces the operator's stored values in place (sparsity
// structure unchanged) — the per-outer-iteration operator delta of a
// registration loop, without tearing down the session workspace. vals
// must have the operator's NNZ length. The operator must expose
// SetValues (sparse.CSR and sparse.Rect do).
func (q *Sequence) UpdateValues(vals []float64) error {
	vs, ok := q.sess.Operator().(valueSetter)
	if !ok {
		return fmt.Errorf("solve: sequence operator %T cannot update values in place: %w",
			q.sess.Operator(), ErrUnsupportedOperator)
	}
	if sp, ok := q.sess.Operator().(interface{ NNZ() int }); ok && len(vals) != sp.NNZ() {
		return fmt.Errorf("solve: sequence value update has %d values but the operator stores %d: %w",
			len(vals), sp.NNZ(), ErrDim)
	}
	vs.SetValues(vals)
	return nil
}
