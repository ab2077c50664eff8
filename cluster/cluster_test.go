package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vrcg/precond"
	"vrcg/solve"
	"vrcg/sparse"
)

// testFleet boots a coordinator plus n in-process workers on loopback
// TCP — the full wire protocol, no shortcuts — and tears everything
// down with the test.
type testFleet struct {
	c       *Coordinator
	workers []*Worker
	ids     []string
}

func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := &testFleet{
		c: NewCoordinator(CoordinatorConfig{
			HeartbeatInterval: 50 * time.Millisecond,
			PlaceTimeout:      10 * time.Second,
			Logf:              t.Logf,
		}),
	}
	t.Cleanup(func() { f.c.Close() })
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{HaloTimeout: 10 * time.Second, Logf: t.Logf})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		t.Cleanup(func() { w.Close() })
		id, err := f.c.AddWorker(w.Addr())
		if err != nil {
			t.Fatalf("register worker %d: %v", i, err)
		}
		f.workers = append(f.workers, w)
		f.ids = append(f.ids, id)
	}
	return f
}

func rhs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// solveSerial runs the single-process reference solve.
func solveSerial(t *testing.T, method string, a *sparse.CSR, b []float64, opts ...solve.Option) *solve.Result {
	t.Helper()
	res, err := solve.MustNew(method).Solve(a, b, opts...)
	if err != nil {
		t.Fatalf("serial %s: %v", method, err)
	}
	return res
}

func maxAbsDiff(x, y []float64) float64 {
	m := 0.0
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > m {
			m = d
		}
	}
	return m
}

// parityGap is the solution difference scaled to the solution's own
// magnitude — the parity measure: distributed and serial runs round
// differently (per-shard dot partials vs one blocked reduction), so
// agreement is relative to scale, never bitwise.
func parityGap(got, want []float64) float64 {
	scale := 1.0
	for _, v := range want {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	return maxAbsDiff(got, want) / scale
}

// TestDistributedParity: every method the registry declares Sharded —
// the fleet has no method list of its own — solves across 2 and 3
// workers to the serial solution within 1e-12, in the serial iteration
// count (convergence decisions are made on identical combined scalars;
// sstep's monomial blocks amplify the rounding of the split sums, so it
// gets one block of slack), doing the serial solve's work on every
// worker, and with the schedule's synchronization structure on the
// wire: so many allreduce rounds per iteration and no more.
func TestDistributedParity(t *testing.T) {
	a := sparse.Poisson2D(20) // n = 400, well conditioned
	b := rhs(a.Dim(), 7)
	var fleets []*testFleet
	for _, workers := range []int{2, 3} {
		f := newTestFleet(t, workers)
		if err := f.c.Place("op", a); err != nil {
			t.Fatalf("place: %v", err)
		}
		fleets = append(fleets, f)
	}
	jacobi, err := precond.ByName("jacobi", a)
	if err != nil {
		t.Fatal(err)
	}
	// Allreduce rounds a schedule may spend per `iters` iterations, on
	// top of three per solve (‖b‖, the start-up products, the true
	// residual). A method that becomes Sharded states its bound here.
	onWire := map[string]struct{ rounds, iters int }{
		"cg": {2, 1}, "cgfused": {2, 1}, "pcg": {2, 1}, "gropp": {2, 1},
		"pipecg": {1, 1}, "sstep": {2, 4},
	}

	// Solve well past the parity gate: the two runs round differently
	// (per-shard dot partials vs the serial blocked reduction), and the
	// gap between the solutions scales with the residual level reached.
	const tol = 1e-13
	for _, method := range shardedMethods() {
		t.Run(method, func(t *testing.T) {
			bound, ok := onWire[method]
			if !ok {
				t.Fatalf("%s is Sharded but declares no allreduce bound", method)
			}
			serialOpts := []solve.Option{solve.WithTol(tol)}
			opts := SolveOpts{Tol: tol}
			if method == "pcg" {
				// Block-Jacobi of the jacobi local is global Jacobi.
				serialOpts = append(serialOpts, solve.WithPreconditioner(jacobi))
				opts.Precond = "jacobi"
			}
			want := solveSerial(t, method, a, b, serialOpts...)
			for _, f := range fleets {
				workers := len(f.workers)
				var rounds uint64
				f.c.testAfterCombine = func(_, seq uint64) { rounds = seq }
				got, err := f.c.Solve(context.Background(), "op", method, b, opts)
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				if !got.Converged || got.Workers != workers {
					t.Fatalf("converged=%v on %d workers, want %d", got.Converged, got.Workers, workers)
				}
				if d := parityGap(got.X, want.X); d > 1e-12 {
					t.Errorf("%d workers: solution diverges from serial by %g (relative)", workers, d)
				}
				slack := 0
				if bound.iters > 1 {
					slack = bound.iters
				}
				if d := got.Iterations - want.Iterations; d < -slack || d > slack {
					t.Errorf("%d workers: iterations %d, serial %d", workers, got.Iterations, want.Iterations)
				}
				if got.Iterations == want.Iterations {
					// Result.Stats sums the workers'; each did the serial work.
					ws, k := want.Stats, uint64(workers)
					fleet := runStats{k * uint64(ws.MatVecs), k * uint64(ws.InnerProducts), k * uint64(ws.VectorUpdates), k * uint64(ws.PrecondSolves)}
					if got.Stats != fleet {
						t.Errorf("%d workers: stats %+v, want %d x serial %+v", workers, got.Stats, workers, ws)
					}
				}
				units := (got.Iterations + bound.iters - 1) / bound.iters
				if max := uint64(bound.rounds*units + 3); rounds == 0 || rounds > max {
					t.Errorf("%d workers: %d allreduce rounds for %d iterations, want 1..%d", workers, rounds, got.Iterations, max)
				}
				if got.TrueResidualNorm > 10*tol*normOf(b) {
					t.Errorf("%d workers: true residual %g too large", workers, got.TrueResidualNorm)
				}
				for _, phase := range []string{"spmv", "halo", "reduction", "iteration"} {
					if ps, ok := got.Phases[phase]; !ok || ps.Count == 0 {
						t.Errorf("%d workers: phase %q not observed (%+v)", workers, phase, got.Phases)
					}
				}
			}
		})
	}
}

// TestDistributedPCGJacobiParity: block-Jacobi of the "jacobi" local is
// exactly global Jacobi, so distributed pcg+jacobi must match the
// serial preconditioned solve to 1e-12.
func TestDistributedPCGJacobiParity(t *testing.T) {
	f := newTestFleet(t, 3)
	a := sparse.RandomSPD(300, 6, 11)
	b := rhs(a.Dim(), 11)
	if err := f.c.Place("op", a); err != nil {
		t.Fatalf("place: %v", err)
	}
	const tol = 1e-12
	m, err := precond.ByName("jacobi", a)
	if err != nil {
		t.Fatal(err)
	}
	want := solveSerial(t, "pcg", a, b, solve.WithTol(tol), solve.WithPreconditioner(m))
	got, err := f.c.Solve(context.Background(), "op", "pcg", b, SolveOpts{Tol: tol, Precond: "jacobi"})
	if err != nil {
		t.Fatalf("distributed pcg: %v", err)
	}
	if d := parityGap(got.X, want.X); d > 1e-12 {
		t.Fatalf("pcg+jacobi diverges from serial by %g (relative)", d)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("iterations: distributed %d, serial %d", got.Iterations, want.Iterations)
	}
}

// TestDistributedBlockSchwarz: with a non-diagonal local ("ssor") the
// block preconditioner is genuinely additive Schwarz — not equal to the
// global preconditioner — so we verify it solves the system correctly
// rather than matching serial iterations.
func TestDistributedBlockSchwarz(t *testing.T) {
	f := newTestFleet(t, 2)
	a := sparse.Poisson2D(16)
	n := a.Dim()
	b := rhs(n, 3)
	if err := f.c.Place("op", a); err != nil {
		t.Fatalf("place: %v", err)
	}
	got, err := f.c.Solve(context.Background(), "op", "pcg", b, SolveOpts{Tol: 1e-10, Precond: "ssor"})
	if err != nil {
		t.Fatalf("pcg+block-ssor: %v", err)
	}
	if !got.Converged {
		t.Fatal("pcg with block-SSOR Schwarz local did not converge")
	}
	if got.TrueResidualNorm > 1e-8*normOf(b) {
		t.Fatalf("true residual %g", got.TrueResidualNorm)
	}
}

// TestSingleWorkerFleet: the degenerate one-worker fleet (no halo
// traffic at all) matches serial exactly.
func TestSingleWorkerFleet(t *testing.T) {
	f := newTestFleet(t, 1)
	a := sparse.TridiagToeplitz(120, 4, -1)
	b := rhs(120, 5)
	if err := f.c.Place("op", a); err != nil {
		t.Fatalf("place: %v", err)
	}
	want := solveSerial(t, "cg", a, b, solve.WithTol(1e-12))
	got, err := f.c.Solve(context.Background(), "op", "cg", b, SolveOpts{Tol: 1e-12})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if d := parityGap(got.X, want.X); d > 1e-12 {
		t.Fatalf("single-worker fleet diverges by %g (relative)", d)
	}
}

// TestCoordinatorCloseWaits: Close returns only after the reader and
// heartbeat goroutines it started have exited — here one whose worker
// died first and which is held inside its "removed" log line — so
// nothing is left to log into a finished test, and the process is back
// to its goroutine baseline.
func TestCoordinatorCloseWaits(t *testing.T) {
	base := runtime.NumGoroutine()
	var calls atomic.Int32
	inLog, release := make(chan struct{}), make(chan struct{})
	c := NewCoordinator(CoordinatorConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		Logf: func(string, ...any) {
			if calls.Add(1) == 1 { // w0's reader, reporting the lost connection
				close(inLog)
				<-release
			}
		},
	})
	var workers []*Worker
	for i := 0; i < 2; i++ {
		w, err := NewWorker(WorkerConfig{})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer w.Close()
		if _, err := c.AddWorker(w.Addr()); err != nil {
			t.Fatalf("register worker %d: %v", i, err)
		}
		workers = append(workers, w)
	}
	workers[0].Close()
	<-inLog
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a reader goroutine was still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-closed
	workers[1].Close()
	// A goroutine is counted until it has left its deferred Done.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the fleet", runtime.NumGoroutine(), base)
		}
	}
	if _, err := c.AddWorker(workers[1].Addr()); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddWorker after Close: %v, want ErrClosed", err)
	}
}

// TestTinyOperatorMoreWorkersThanRows: a 5-row operator on a 3-worker
// fleet clamps the shard count and still solves.
func TestTinyOperatorMoreWorkersThanRows(t *testing.T) {
	f := newTestFleet(t, 3)
	a := sparse.TridiagToeplitz(5, 4, -1)
	b := []float64{1, 2, 3, 4, 5}
	if err := f.c.Place("tiny", a); err != nil {
		t.Fatalf("place: %v", err)
	}
	got, err := f.c.Solve(context.Background(), "tiny", "cg", b, SolveOpts{Tol: 1e-12})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	want := solveSerial(t, "cg", a, b, solve.WithTol(1e-12))
	if d := parityGap(got.X, want.X); d > 1e-12 {
		t.Fatalf("tiny solve diverges by %g (relative)", d)
	}
}

// TestSolveErrors: API misuse maps onto the solve package's sentinels.
func TestSolveErrors(t *testing.T) {
	f := newTestFleet(t, 2)
	a := sparse.Poisson2D(8)
	if err := f.c.Place("op", a); err != nil {
		t.Fatalf("place: %v", err)
	}
	ctx := context.Background()
	if _, err := f.c.Solve(ctx, "nope", "cg", make([]float64, a.Dim()), SolveOpts{}); !errors.Is(err, ErrUnknownOperator) {
		t.Errorf("unknown operator: %v", err)
	}
	if _, err := f.c.Solve(ctx, "op", "minres", make([]float64, a.Dim()), SolveOpts{}); !errors.Is(err, solve.ErrUnknownMethod) {
		t.Errorf("unsupported method: %v", err)
	}
	if _, err := f.c.Solve(ctx, "op", "cg", make([]float64, 3), SolveOpts{}); !errors.Is(err, solve.ErrDim) {
		t.Errorf("dim mismatch: %v", err)
	}
	if err := f.c.Place("op", a); !errors.Is(err, ErrOperatorExists) {
		t.Errorf("duplicate place: %v", err)
	}
	// MaxIter 1 on a hard-enough system: ErrNotConverged with a usable
	// result, same contract as the solve package.
	res, err := f.c.Solve(ctx, "op", "cg", rhs(a.Dim(), 1), SolveOpts{Tol: 1e-14, MaxIter: 1})
	if !errors.Is(err, solve.ErrNotConverged) {
		t.Errorf("maxiter=1: want ErrNotConverged, got %v", err)
	}
	if res == nil || res.Iterations != 1 {
		t.Errorf("maxiter=1: want usable 1-iteration result, got %+v", res)
	}
}

// TestWorkerDeathReplacement: killing a worker mid-solve triggers
// re-placement across the survivors and the solve completes correctly —
// degraded capacity, full availability. Subsequent solves keep working.
func TestWorkerDeathReplacement(t *testing.T) {
	f := newTestFleet(t, 3)
	a := sparse.Poisson2D(18)
	b := rhs(a.Dim(), 13)
	if err := f.c.Place("op", a); err != nil {
		t.Fatalf("place: %v", err)
	}

	// Kill worker 2 deterministically: after the third combined
	// reduction of the first solve.
	killed := false
	f.c.testAfterCombine = func(solveID, seq uint64) {
		if !killed && seq == 3 {
			killed = true
			f.workers[2].Close()
		}
	}

	want := solveSerial(t, "pipecg", a, b, solve.WithTol(1e-12))
	got, err := f.c.Solve(context.Background(), "op", "pipecg", b, SolveOpts{Tol: 1e-12})
	if err != nil {
		t.Fatalf("solve across death: %v", err)
	}
	if !killed {
		t.Fatal("kill hook never fired")
	}
	if got.Retries == 0 {
		t.Error("expected at least one retry after worker death")
	}
	if !got.Degraded {
		t.Error("result not marked degraded after losing a worker")
	}
	if got.Workers != 2 {
		t.Errorf("re-placed on %d workers, want 2", got.Workers)
	}
	if d := parityGap(got.X, want.X); d > 1e-12 {
		t.Fatalf("post-death solution diverges by %g (relative)", d)
	}

	// The degraded fleet keeps serving.
	f.c.testAfterCombine = nil
	got2, err := f.c.Solve(context.Background(), "op", "cg", b, SolveOpts{Tol: 1e-12})
	if err != nil {
		t.Fatalf("follow-up solve: %v", err)
	}
	want2 := solveSerial(t, "cg", a, b, solve.WithTol(1e-12))
	if d := parityGap(got2.X, want2.X); d > 1e-12 {
		t.Fatalf("follow-up solve diverges by %g (relative)", d)
	}

	snap := f.c.Metrics()
	if snap.Replacements == 0 {
		t.Error("metrics recorded no re-placements")
	}
	if len(snap.Workers) != 2 {
		t.Errorf("fleet shows %d workers, want 2", len(snap.Workers))
	}
}

// TestFleetMetrics: solves populate per-method per-phase histograms.
func TestFleetMetrics(t *testing.T) {
	f := newTestFleet(t, 2)
	a := sparse.Poisson2D(12)
	b := rhs(a.Dim(), 17)
	if err := f.c.Place("op", a); err != nil {
		t.Fatalf("place: %v", err)
	}
	for _, method := range []string{"cg", "gropp"} {
		if _, err := f.c.Solve(context.Background(), "op", method, b, SolveOpts{Tol: 1e-10}); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}
	snap := f.c.Metrics()
	if snap.Solves != 2 {
		t.Errorf("solves %d, want 2", snap.Solves)
	}
	if snap.Operators != 1 {
		t.Errorf("operators %d, want 1", snap.Operators)
	}
	for _, method := range []string{"cg", "gropp"} {
		phases := snap.PhaseLatency[method]
		if phases == nil {
			t.Fatalf("no phase latency for %s", method)
		}
		for _, name := range []string{"spmv", "halo", "reduction", "iteration"} {
			if phases[name].Count == 0 {
				t.Errorf("%s/%s: zero observations", method, name)
			}
			if phases[name].Buckets["+Inf"] != phases[name].Count {
				t.Errorf("%s/%s: bucket sum %d != count %d", method, name,
					phases[name].Buckets["+Inf"], phases[name].Count)
			}
		}
	}
}

// TestRepeatedSolvesSameOperator: back-to-back solves (warm shards,
// reused peer links) stay correct.
func TestRepeatedSolvesSameOperator(t *testing.T) {
	f := newTestFleet(t, 2)
	a := sparse.Poisson2D(14)
	if err := f.c.Place("op", a); err != nil {
		t.Fatalf("place: %v", err)
	}
	for trial := 0; trial < 3; trial++ {
		b := rhs(a.Dim(), int64(100+trial))
		want := solveSerial(t, "gropp", a, b, solve.WithTol(1e-12))
		got, err := f.c.Solve(context.Background(), "op", "gropp", b, SolveOpts{Tol: 1e-12})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := parityGap(got.X, want.X); d > 1e-12 {
			t.Fatalf("trial %d diverges by %g (relative)", trial, d)
		}
	}
}

func normOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
