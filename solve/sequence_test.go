package solve_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"vrcg/solve"
	"vrcg/sparse"
)

// TestSequenceWarmStartShrinksIterations: stepping the same system
// twice must make step 2 strictly cheaper — it starts at the converged
// solution.
func TestSequenceWarmStartShrinksIterations(t *testing.T) {
	a := sparse.Poisson2D(16)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1
	}
	q, err := solve.NewSequence("cg", a, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	if q.Warm() {
		t.Fatal("fresh sequence claims to be warm")
	}
	// Session.Solve reuses one Result, so snapshot the per-step counts
	// immediately.
	r1, err := q.Step(b)
	if err != nil {
		t.Fatal(err)
	}
	it1 := r1.Iterations
	if !q.Warm() {
		t.Fatal("sequence not warm after a converged step")
	}
	r2, err := q.Step(b)
	if err != nil {
		t.Fatal(err)
	}
	it2 := r2.Iterations
	if it2 >= it1 {
		t.Fatalf("warm step took %d iterations, cold took %d — warm start not engaged", it2, it1)
	}
	steps := q.Steps()
	if len(steps) != 2 || steps[0] != it1 || steps[1] != it2 {
		t.Fatalf("Steps() = %v, want [%d %d]", steps, it1, it2)
	}

	// Reset forgets the warm start: the next step is a cold solve again.
	q.Reset()
	r3, err := q.Step(b)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Iterations != it1 {
		t.Errorf("post-Reset step took %d iterations, cold baseline %d", r3.Iterations, it1)
	}
}

// TestSequencePerturbedRHS: the ICP shape — slowly drifting right-hand
// sides — must keep warm steps cheaper than the cold start.
func TestSequencePerturbedRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := sparse.Poisson2D(12)
	n := a.Dim()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	q, err := solve.NewSequence("cg", a, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	r0, err := q.Step(b)
	if err != nil {
		t.Fatal(err)
	}
	cold := r0.Iterations
	for step := 0; step < 3; step++ {
		for i := range b {
			b[i] += 1e-6 * rng.NormFloat64()
		}
		r, err := q.Step(b)
		if err != nil {
			t.Fatal(err)
		}
		if r.Iterations >= cold {
			t.Fatalf("warm step %d took %d iterations, cold took %d", step, r.Iterations, cold)
		}
	}
}

// TestSequenceOperatorUpdates: Rescale and UpdateValues mutate the
// operator in place between steps, and solves track the new operator.
func TestSequenceOperatorUpdates(t *testing.T) {
	a := sparse.Poisson1D(40)
	n := a.Dim()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	q, err := solve.NewSequence("cg", a, solve.WithTol(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := q.Step(b)
	if err != nil {
		t.Fatal(err)
	}
	x1 := append([]float64(nil), r1.X...)

	// A*2 halves the solution of the same rhs.
	if err := q.Rescale(2); err != nil {
		t.Fatal(err)
	}
	r2, err := q.Step(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if diff := r2.X[i] - x1[i]/2; diff > 1e-8 || diff < -1e-8 {
			t.Fatalf("after Rescale(2), x[%d] = %g, want %g", i, r2.X[i], x1[i]/2)
		}
	}

	// UpdateValues back to the original values restores the original
	// solution.
	orig := append([]float64(nil), a.Values()...)
	for i := range orig {
		orig[i] /= 2
	}
	if err := q.UpdateValues(orig); err != nil {
		t.Fatal(err)
	}
	r3, err := q.Step(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if diff := r3.X[i] - x1[i]; diff > 1e-8 || diff < -1e-8 {
			t.Fatalf("after UpdateValues, x[%d] = %g, want %g", i, r3.X[i], x1[i])
		}
	}

	// Wrong-length updates are rejected with ErrDim, not a panic.
	if err := q.UpdateValues(orig[:1]); !errors.Is(err, solve.ErrDim) {
		t.Errorf("UpdateValues(short) = %v, want ErrDim", err)
	}
}

// TestSequenceRejectsNonMutableOperator: operators without in-place
// value updates get ErrUnsupportedOperator from Rescale/UpdateValues.
func TestSequenceRejectsNonMutableOperator(t *testing.T) {
	q, err := solve.NewSequence("cg", opaqueSPD{n: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Rescale(2); !errors.Is(err, solve.ErrUnsupportedOperator) {
		t.Errorf("Rescale on matrix-free operator = %v, want ErrUnsupportedOperator", err)
	}
	if err := q.UpdateValues([]float64{1}); !errors.Is(err, solve.ErrUnsupportedOperator) {
		t.Errorf("UpdateValues on matrix-free operator = %v, want ErrUnsupportedOperator", err)
	}
}

type opaqueSPD struct{ n int }

func (o opaqueSPD) Dim() int { return o.n }
func (o opaqueSPD) MulVec(dst, x []float64) {
	for i := range dst {
		dst[i] = 2 * x[i]
	}
}

// TestSequenceLeastSquares: a rectangular lsqr sequence — the ICP shape
// proper — warm starts across operator value updates.
func TestSequenceLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows, cols := 60, 6
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	a := sparse.RectFromDense(rows, cols, data)
	xTrue := make([]float64, cols)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, rows)
	a.MulVec(b, xTrue)

	q, err := solve.NewSequence("lsqr", a, solve.WithTol(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := q.Step(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.X) != cols {
		t.Fatalf("solution length %d, want %d", len(r1.X), cols)
	}
	coldIters := r1.Iterations

	// Perturb the operator values slightly (same structure), as an ICP
	// outer iteration would; the warm step must beat the cold one.
	vals := append([]float64(nil), a.Values()...)
	for i := range vals {
		vals[i] *= 1 + 1e-8*rng.NormFloat64()
	}
	if err := q.UpdateValues(vals); err != nil {
		t.Fatal(err)
	}
	r2, err := q.Step(b)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Iterations >= coldIters {
		t.Fatalf("warm rectangular step took %d iterations, cold took %d", r2.Iterations, coldIters)
	}
}

// stopAfter is a context that is canceled at its n-th Done call: a
// deadline that passes mid-solve, with no clock in it. Err is non-nil
// exactly once Done has closed, as the Context contract has it.
type stopAfter struct {
	context.Context
	polls, n int
	done     chan struct{}
}

func (c *stopAfter) Done() <-chan struct{} {
	if c.done == nil {
		c.done = make(chan struct{})
	}
	if c.polls++; c.polls == c.n {
		close(c.done)
	}
	return c.done
}

func (c *stopAfter) Err() error {
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestSequenceStepContext: a context given to StepContext stops that
// step — and only that step — mid-solve; the stopped step is counted
// and its partial iterate seeds the next, which a plain Step then
// finishes, bitwise the solve a WithContext-free sequence runs, and
// without allocating.
func TestSequenceStepContext(t *testing.T) {
	a := sparse.Poisson2D(16)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%3)
	}
	q, err := solve.NewSequence("cg", a, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.StepContext(&stopAfter{Context: context.Background(), n: 5}, b)
	if !errors.Is(err, context.Canceled) || res == nil || res.Converged {
		t.Fatalf("stopped step: result %+v, err %v; want a partial result and context.Canceled", res, err)
	}
	cut := res.Iterations
	if steps := q.Steps(); len(steps) != 1 || steps[0] != cut || !q.Warm() {
		t.Fatalf("after the stopped step: Steps() = %v, warm = %v", steps, q.Warm())
	}
	x0 := append([]float64(nil), res.X...)

	res, err = q.Step(b)
	if err != nil || !res.Converged {
		t.Fatalf("step after the stopped one: %+v, %v", res, err)
	}
	want, err := solve.MustNew("cg").Solve(a, b, solve.WithTol(1e-10), solve.WithX0(x0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != want.Iterations {
		t.Fatalf("step after the stopped one took %d iterations, a solve from the same iterate takes %d", res.Iterations, want.Iterations)
	}
	for i := range want.X {
		if res.X[i] != want.X[i] {
			t.Fatalf("x[%d] = %g, a solve from the same iterate gives %g", i, res.X[i], want.X[i])
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := q.Step(b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm Step allocates %v times", allocs)
	}
}
