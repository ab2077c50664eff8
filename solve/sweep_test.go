// What the engine's one-pass schedule of an iteration (the direction
// update, the product and (p,Ap) in one sweep over an operator that
// offers its rows) must never change: a bit of a result, and what a
// failed or stopped solve leaves behind. External-consumer style, like
// session_test.go.
package solve_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"vrcg/precond"
	"vrcg/solve"
	"vrcg/sparse"
)

// wholeVectorOnly hides everything of an operator but its whole product
// and its counts — the shape of the judged benchmark's tracing decorator,
// which embeds a *sparse.CSR and forwards MulVec to the tuned operator —
// so the engine sees no rows to sweep and makes the whole-vector calls.
type wholeVectorOnly struct{ sparse.Sparse }

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sweepOperators are the operators of the comparison, each as the engine
// runs it: a banded CSR as its tuned DIA.
func sweepOperators(t *testing.T) map[string]sparse.Sparse {
	t.Helper()
	varcoeff, err := sparse.VarCoeffPoisson2D(24, sparse.JumpCoefficient(50))
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]sparse.Sparse{}
	for name, a := range map[string]*sparse.CSR{
		"poisson1d-100": sparse.Poisson1D(100),
		"poisson2d-17":  sparse.Poisson2D(17),
		"poisson2d-64":  sparse.Poisson2D(64),
		"poisson2d-80":  sparse.Poisson2D(80), // 6400 rows: more than one granule
		"poisson3d-12":  sparse.Poisson3D(12),
		"varcoeff-24":   varcoeff,
	} {
		d, ok := sparse.TuneMulVec(a).(*sparse.DIA)
		if !ok {
			t.Fatalf("%s is not tuned to diagonal storage", name)
		}
		ops[name] = d
	}
	return ops
}

// TestSweepIsTheWholeVectorSolve: cg, cgfused, pcg, sd and cr on an operator
// that offers its rows against the same solve on a wrapper that offers
// only MulVec — solution bits, residual history, iterations and work
// counts equal, from a cold start and from a warm one.
func TestSweepIsTheWholeVectorSolve(t *testing.T) {
	for name, op := range sweepOperators(t) {
		n := op.Dim()
		b := rhsSet(n, 1)[0]
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = math.Cos(float64(3 * i))
		}
		var jacobi solve.Preconditioner
		if d, ok := op.(*sparse.DIA); ok {
			m, err := precond.NewJacobi(d.ToCSR())
			if err != nil {
				t.Fatal(err)
			}
			jacobi = m
		}
		for _, method := range []string{"cg", "cgfused", "pcg", "sd", "cr"} {
			for _, warm := range []bool{false, true} {
				opts := []solve.Option{solve.WithTol(1e-10), solve.WithMaxIter(300), solve.WithHistory(true)}
				if warm {
					opts = append(opts, solve.WithX0(x0))
				}
				if method == "pcg" && jacobi != nil {
					opts = append(opts, solve.WithPreconditioner(jacobi))
				}
				got, gerr := solve.MustNew(method).Solve(op, b, opts...)
				want, werr := solve.MustNew(method).Solve(wholeVectorOnly{op}, b, opts...)
				if (gerr == nil) != (werr == nil) || (gerr != nil && !errors.Is(gerr, solve.ErrNotConverged)) {
					t.Fatalf("%s %s warm=%v: errors %v and %v", method, name, warm, gerr, werr)
				}
				if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Stats != want.Stats {
					t.Errorf("%s %s warm=%v: %d iterations (converged %v) %v, whole-vector %d (%v) %v", method, name, warm,
						got.Iterations, got.Converged, got.Stats, want.Iterations, want.Converged, want.Stats)
				}
				if !sameBits(got.X, want.X) {
					t.Errorf("%s %s warm=%v: X differs from the whole-vector solve", method, name, warm)
				}
				if !sameBits(got.History, want.History) || len(got.History) != got.Iterations+1 {
					t.Errorf("%s %s warm=%v: history differs from the whole-vector solve", method, name, warm)
				}
				if math.Float64bits(got.TrueResidualNorm) != math.Float64bits(want.TrueResidualNorm) {
					t.Errorf("%s %s warm=%v: true residual %v, whole-vector %v", method, name, warm, got.TrueResidualNorm, want.TrueResidualNorm)
				}
			}
		}
	}
}

// TestSweepSessionZeroAlloc: a warm session on a swept operator of more
// than one granule allocates nothing — the partials slab of the sweep's
// inner product is the workspace's.
func TestSweepSessionZeroAlloc(t *testing.T) {
	a := sparse.Poisson2D(80)
	b := rhsSet(a.Dim(), 1)[0]
	// Tolerances each method meets within a few tens of iterations: a solve that
	// runs out of iterations allocates its error.
	for method, tol := range map[string]float64{"cg": 1e-3, "pcg": 1e-3, "sd": 0.01} {
		sess, err := solve.NewSession(method, a, solve.WithTol(tol))
		if err != nil {
			t.Fatal(err)
		}
		if res, err := sess.Solve(b); err != nil || res.Iterations < 2 { // warms the workspace
			t.Fatalf("%s: %d iterations, %v", method, res.Iterations, err)
		}
		if avg := testing.AllocsPerRun(10, func() { sess.Solve(b) }); avg != 0 {
			t.Errorf("%s: %v allocs per warm solve", method, avg)
		}
	}
}

// TestSweptPhasesSumToSteps: parcg-cg — cg's kernel with phase timing
// on — over a swept operator charges each step to the three phases, one
// observation of each per step, the leading update to update and the
// rows with the update they carry to spmv, and all of it together inside
// the solve's wall time.
func TestSweptPhasesSumToSteps(t *testing.T) {
	a := sparse.Poisson2D(80)
	b := rhsSet(a.Dim(), 1)[0]
	start := time.Now()
	res, err := solve.MustNew("parcg-cg").Solve(a, b, solve.WithTol(1e-8))
	wall := float64(time.Since(start).Nanoseconds()) / 1e3
	if err != nil || res.Phases == nil {
		t.Fatalf("solve: %v, phases %v", err, res.Phases != nil)
	}
	sum := 0.0
	for p, h := range res.Phases {
		if h.Count != uint64(res.Iterations) {
			t.Errorf("phase %d: %d observations over %d steps", p, h.Count, res.Iterations)
		}
		if h.Sum <= 0 {
			t.Errorf("phase %d: nothing charged", p)
		}
		sum += h.Sum
	}
	if sum > wall {
		t.Errorf("phases sum to %.0f us, the solve took %.0f", sum, wall)
	}
}

// turnsNaN is a row-sweepable operator whose products are NaN from the
// after-th on, whichever way they are taken.
type turnsNaN struct {
	*sparse.DIA
	after, products int
}

func (o *turnsNaN) MulVec(dst, x []float64) {
	o.products++
	o.DIA.MulVec(dst, x)
	if o.products >= o.after {
		dst[0] = math.NaN()
	}
}

func (o *turnsNaN) MulRows(lo, hi int, dst, x, src []float64, beta float64, lead int) {
	if lo == 0 {
		o.products++
	}
	o.DIA.MulRows(lo, hi, dst, x, src, beta, lead)
	if o.products >= o.after {
		dst[lo] = math.NaN()
	}
}

// TestStoppedSolveKeepsLastIterate: when a step fails, and when a monitor
// stops the solve, Res.X is the iterate of the last completed iteration —
// the X of the same solve given that many iterations — on the swept
// operator and on the whole-vector one alike. The direction update the
// last step left pending is nobody's business.
func TestStoppedSolveKeepsLastIterate(t *testing.T) {
	a := sparse.Poisson2D(80)
	d := sparse.TuneMulVec(a).(*sparse.DIA)
	b := rhsSet(a.Dim(), 1)[0]
	const k = 7
	for _, method := range []string{"cg", "pcg", "sd"} {
		ref, err := solve.MustNew(method).Solve(d, b, solve.WithTol(1e-12), solve.WithMaxIter(k))
		if !errors.Is(err, solve.ErrNotConverged) || ref.Iterations != k {
			t.Fatalf("%s: reference solve: %d iterations, %v", method, ref.Iterations, err)
		}
		for name, wrap := range map[string]func(solve.Operator) solve.Operator{
			"sweep": func(op solve.Operator) solve.Operator { return op },
			"whole": func(op solve.Operator) solve.Operator { return wholeVectorOnly{op.(sparse.Sparse)} },
		} {
			// Init takes no product (no X0: r0 is b); step i's is product i.
			failing := &turnsNaN{DIA: d, after: k + 1}
			res, err := solve.MustNew(method).Solve(wrap(failing), b, solve.WithTol(1e-12))
			if !errors.Is(err, solve.ErrBreakdown) {
				t.Fatalf("%s %s: error %v, want a breakdown", method, name, err)
			}
			if res.Iterations != k || !sameBits(res.X, ref.X) {
				t.Errorf("%s %s: a step failed after %d iterations and X is not iterate %d", method, name, res.Iterations, k)
			}

			stop := solve.MonitorFunc(func(iter int, _ float64) bool { return iter < k })
			res, err = solve.MustNew(method).Solve(wrap(d), b, solve.WithTol(1e-12), solve.WithMonitor(stop))
			if err != nil {
				t.Fatalf("%s %s: stopped solve: %v", method, name, err)
			}
			if res.Iterations != k || !sameBits(res.X, ref.X) {
				t.Errorf("%s %s: stopped after %d iterations and X is not iterate %d", method, name, res.Iterations, k)
			}
		}
	}
}

// TestNonFiniteCurvatureKeepsTheIterate: an operator with a NaN in it
// makes the first curvature NaN, which no ordered comparison catches.
// Every method that tests a curvature must call that a breakdown — not
// "not positive definite", not 10·n iterations on NaN, and not a NaN X
// labelled converged — before it has written a vector: zero iterations,
// and X still the caller's warm start, bit for bit.
func TestNonFiniteCurvatureKeepsTheIterate(t *testing.T) {
	const n = 8
	diag, off := make([]float64, n), make([]float64, n)
	for i := range diag {
		diag[i], off[i] = 2, -1
	}
	diag[3] = math.NaN()
	a := sparse.NewDIA(n, map[int][]float64{-1: off, 0: diag, 1: off})
	b, x0 := make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], x0[i] = float64(i+1), 1
	}
	for _, method := range []string{"cg", "pcg", "cr", "sd", "pipecg", "gropp", "minres", "blockcg", "blockpcg", "vrcg", "parcg", "sstep"} {
		for name, op := range map[string]solve.Operator{"sweep": a, "whole": wholeVectorOnly{a}} {
			res, err := solve.MustNew(method).Solve(op, b, solve.WithX0(x0))
			if !errors.Is(err, solve.ErrBreakdown) || errors.Is(err, solve.ErrIndefinite) {
				t.Errorf("%s %s: error %v, want a breakdown", method, name, err)
			}
			if res == nil {
				continue
			}
			if res.Iterations != 0 || !sameBits(res.X, x0) {
				t.Errorf("%s %s: %d iterations, X = %v; want none and the warm start %v", method, name, res.Iterations, res.X, x0)
			}
		}
	}
}

// TestZeroCurvatureIsIndefinite: the all-zero operator gives the first
// direction a zero curvature, which cg's and pcg's kernels call "not
// positive definite" under every name they answer to, before a vector
// is written.
func TestZeroCurvatureIsIndefinite(t *testing.T) {
	const n = 8
	a := sparse.NewCOO(n).ToCSR()
	b, x0 := make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], x0[i] = float64(i+1), 1
	}
	for _, method := range []string{"cg", "cgfused", "blockcg", "pcg", "blockpcg"} {
		res, err := solve.MustNew(method).Solve(a, b, solve.WithX0(x0))
		if !errors.Is(err, solve.ErrIndefinite) {
			t.Errorf("%s: error %v, want ErrIndefinite", method, err)
		}
		if res != nil && (res.Iterations != 0 || !sameBits(res.X, x0)) {
			t.Errorf("%s: %d iterations, X = %v; want none and the warm start %v", method, res.Iterations, res.X, x0)
		}
	}
}
