// Session/Batch coverage, written external-consumer style: this file
// imports only the public packages (solve, sparse) and the standard
// library — no vrcg/internal/... — so it doubles as the acceptance
// check that the public data plane is self-sufficient.
package solve_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"vrcg/solve"
	"vrcg/sparse"
)

// testMTX is a small SPD system in MatrixMarket coordinate format (a
// shifted 1D Laplacian), the external on-ramp for operators.
const testMTX = `%%MatrixMarket matrix coordinate real symmetric
6 6 11
1 1 3
2 2 3
3 3 3
4 4 3
5 5 3
6 6 3
2 1 -1
3 2 -1
4 3 -1
5 4 -1
6 5 -1
`

func mustReadMTX(t *testing.T) *sparse.CSR {
	t.Helper()
	a, err := sparse.ReadMatrixMarket(strings.NewReader(testMTX))
	if err != nil {
		t.Fatalf("ReadMatrixMarket: %v", err)
	}
	return a
}

func rhsSet(n, count int) [][]float64 {
	B := make([][]float64, count)
	for k := range B {
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64((k+1)*(i+2))) + 0.1*float64(k)
		}
		B[k] = b
	}
	return B
}

// maxAbsDiff is the infinity-norm distance between two vectors.
func maxAbsDiff(x, y []float64) float64 {
	d := 0.0
	for i := range x {
		if a := math.Abs(x[i] - y[i]); a > d {
			d = a
		}
	}
	return d
}

// TestExternalConsumerFlow is the acceptance scenario end to end: load
// a MatrixMarket system, prepare a Session, solve repeatedly, then
// Batch many right-hand sides — all through the public surface only.
func TestExternalConsumerFlow(t *testing.T) {
	a := mustReadMTX(t)
	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-12))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if sess.Dim() != a.Dim() || sess.Method() != "cg" || sess.Operator() != solve.Operator(a) {
		t.Fatal("session accessors wrong")
	}

	B := rhsSet(a.Dim(), 7)

	// Sequential reference: a lone Solve per right-hand side.
	want := make([][]float64, len(B))
	for i, b := range B {
		res, err := sess.Solve(b)
		if err != nil {
			t.Fatalf("rhs %d: %v", i, err)
		}
		if !res.Converged {
			t.Fatalf("rhs %d did not converge", i)
		}
		want[i] = append([]float64(nil), res.X...)
	}

	results, err := solve.Batch(sess, B)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(results) != len(B) {
		t.Fatalf("Batch returned %d results for %d rhs", len(results), len(B))
	}
	for i := range results {
		if !results[i].Converged {
			t.Fatalf("batch rhs %d did not converge", i)
		}
		if d := maxAbsDiff(results[i].X, want[i]); d > 1e-12 {
			t.Fatalf("batch rhs %d differs from sequential solve by %g (> 1e-12)", i, d)
		}
	}
}

// TestBatchMatchesSequentialAcrossMethods: Batch parity for a spread of
// methods, including the non-fast-path ones, at several worker counts.
func TestBatchMatchesSequentialAcrossMethods(t *testing.T) {
	a := sparse.Poisson2D(9) // n=81
	B := rhsSet(a.Dim(), 10)
	for _, method := range []string{"cg", "pcg", "pipecg", "cr", "vrcg", "sstep"} {
		sess, err := solve.NewSession(method, a, solve.WithTol(1e-11))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		want := make([][]float64, len(B))
		for i, b := range B {
			lone, err := solve.MustNew(method).Solve(a, b, solve.WithTol(1e-11))
			if err != nil {
				t.Fatalf("%s rhs %d: %v", method, i, err)
			}
			want[i] = append([]float64(nil), lone.X...)
		}
		for _, workers := range []int{1, 3} {
			results, err := sess.SolveMany(B, solve.WithBatchWorkers(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", method, workers, err)
			}
			for i := range results {
				if d := maxAbsDiff(results[i].X, want[i]); d > 1e-12 {
					t.Fatalf("%s workers=%d rhs %d: batch differs from lone solve by %g",
						method, workers, i, d)
				}
			}
		}
	}
}

// TestSessionResultReuse: the fast-path Result is session-owned — the
// pointer is stable across solves and X remains valid until the next
// Solve.
func TestSessionResultReuse(t *testing.T) {
	a := mustReadMTX(t)
	sess, err := solve.NewSession("cg", a)
	if err != nil {
		t.Fatal(err)
	}
	b := rhsSet(a.Dim(), 1)[0]
	r1, err := sess.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x1 := append([]float64(nil), r1.X...)
	r2, err := sess.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("fast-path Result not reused across session solves")
	}
	if d := maxAbsDiff(x1, r2.X); d != 0 {
		t.Fatalf("same rhs resolved differently: %g", d)
	}
}

// TestSessionExtraOptions: per-call extras flow through (history only
// when asked), and a wrong-length rhs fails with ErrDim.
func TestSessionExtraOptions(t *testing.T) {
	a := mustReadMTX(t)
	sess, err := solve.NewSession("cg", a)
	if err != nil {
		t.Fatal(err)
	}
	b := rhsSet(a.Dim(), 1)[0]
	res, err := sess.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if res.History != nil {
		t.Fatal("history recorded without WithHistory")
	}
	res, err = sess.Solve(b, solve.WithHistory(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("WithHistory extra option ignored")
	}
	if _, err := sess.Solve(b[:3]); !errors.Is(err, solve.ErrDim) {
		t.Fatalf("short rhs error = %v, want ErrDim", err)
	}
}

// TestSessionZeroAllocSteadyState is the acceptance criterion: warm
// workspace-backed sessions allocate nothing per Solve.
func TestSessionZeroAllocSteadyState(t *testing.T) {
	a := sparse.Poisson2D(12)
	b := rhsSet(a.Dim(), 1)[0]
	for _, method := range []string{"cg", "pcg", "pipecg"} {
		sess, err := solve.NewSession(method, a, solve.WithTol(1e-10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Solve(b); err != nil { // warm the workspace
			t.Fatalf("%s: %v", method, err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := sess.Solve(b); err != nil {
				t.Fatalf("%s: %v", method, err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: warm Session.Solve allocates %v per call, want 0", method, avg)
		}
	}
}

// TestBatchErrorsCarryIndex: a batch with one unsolvable right-hand
// side still solves the rest, and the aggregated error names the
// failing index while matching the sentinel through errors.Is.
func TestBatchErrorsCarryIndex(t *testing.T) {
	a := sparse.Poisson2D(8)
	B := rhsSet(a.Dim(), 4)
	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-10), solve.WithMaxIter(2))
	if err != nil {
		t.Fatal(err)
	}
	results, err := solve.Batch(sess, B)
	if err == nil {
		t.Fatal("2-iteration cap should not converge")
	}
	if !errors.Is(err, solve.ErrNotConverged) {
		t.Fatalf("batch error %v does not wrap ErrNotConverged", err)
	}
	if !strings.Contains(err.Error(), "rhs 0") {
		t.Fatalf("batch error %q does not carry the rhs index", err)
	}
	for i := range results {
		if results[i].Iterations == 0 {
			t.Fatalf("rhs %d: partial result missing", i)
		}
	}
}

// TestBatchContextCancel: a pre-canceled context stops every solve and
// surfaces context.Canceled per right-hand side.
func TestBatchContextCancel(t *testing.T) {
	a := sparse.Poisson2D(8)
	B := rhsSet(a.Dim(), 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess, err := solve.NewSession("cg", a, solve.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	_, err = solve.Batch(sess, B)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch under canceled context: err = %v, want context.Canceled", err)
	}
}

// TestBatchEmptyAndFork round out the surface.
func TestBatchEmptyAndFork(t *testing.T) {
	a := mustReadMTX(t)
	sess, err := solve.NewSession("cg", a)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := solve.Batch(sess, nil); res != nil || err != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", res, err)
	}
	fork, err := sess.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if fork == sess || fork.Operator() != sess.Operator() {
		t.Fatal("Fork must share the operator but nothing mutable")
	}
	b := rhsSet(a.Dim(), 1)[0]
	r1, err := sess.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fork.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(r1.X, r2.X); d != 0 {
		t.Fatalf("fork solves differently: %g", d)
	}
}

// TestNewSessionErrors: unknown methods and nil operators fail up
// front.
func TestNewSessionErrors(t *testing.T) {
	if _, err := solve.NewSession("no-such-method", mustReadMTX(t)); !errors.Is(err, solve.ErrUnknownMethod) {
		t.Fatalf("unknown method error = %v", err)
	}
	if _, err := solve.NewSession("cg", nil); err == nil {
		t.Fatal("nil operator accepted")
	}
}

// ExampleSession shows the serving idiom: prepare once, solve per
// request.
func ExampleSession() {
	a := sparse.Poisson1D(32)
	sess, _ := solve.NewSession("cg", a, solve.WithTol(1e-10))
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1
	}
	res, _ := sess.Solve(b)
	fmt.Println(res.Converged, res.Method)
	// Output: true cg
}

// TestBatchWithPoolMatchesSequential: a session prepared WithPool keeps
// batch parity — Batch re-slices the engine into per-worker pools, and
// every result still matches a lone pooled solve to 1e-12.
func TestBatchWithPoolMatchesSequential(t *testing.T) {
	a := sparse.Poisson2D(16)
	B := rhsSet(a.Dim(), 6)
	pool := sparse.NewPool(4)
	defer pool.Close()
	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-11), solve.WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(B))
	for i, b := range B {
		res, err := sess.Solve(b)
		if err != nil {
			t.Fatalf("rhs %d: %v", i, err)
		}
		want[i] = append([]float64(nil), res.X...)
	}
	results, err := solve.Batch(sess, B, solve.WithBatchWorkers(3))
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	// Every right-hand side is solved by cg on a forked pool, whose
	// kernels are bitwise those of the lone pooled solve.
	for i := range results {
		if d := maxAbsDiff(results[i].X, want[i]); d > 1e-9 {
			t.Fatalf("rhs %d: pooled batch differs from pooled solve by %g", i, d)
		}
	}
}
