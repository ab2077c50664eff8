package solve_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/solve"
	"vrcg/sparse"
)

// The tests here hold because a reduction is issued and awaited in one
// place (engine.Workspace): parcg-cg and parcg-pipe are the cg and
// pipecg kernels under another schedule, not other kernels.

func sameSolve(t *testing.T, name string, got, want *solve.Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.ResidualNorm != want.ResidualNorm {
		t.Errorf("%s: (%d, %.17g), want (%d, %.17g)", name,
			got.Iterations, got.ResidualNorm, want.Iterations, want.ResidualNorm)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: X[%d] = %x, want %x", name, i, got.X[i], want.X[i])
		}
	}
}

// TestOverlapIsScheduleOnly: where an issued reduction runs — at issue
// on the pool, or on background goroutines during the SpMV — never
// changes a bit of the solve. pipecg is parcg-pipe with a blocking
// issue, and WithBlocking turns either overlapped schedule into its
// blocking twin.
func TestOverlapIsScheduleOnly(t *testing.T) {
	pool := sparse.NewPool(4)
	defer pool.Close()
	for _, system := range []string{"poisson2d_20", "poisson2d_31"} {
		a, b := goldenSystem(t, system)
		for _, pooled := range []bool{false, true} {
			name := system + "/serial"
			pipe := []solve.Option{solve.WithTol(1e-8), solve.WithMaxIter(4000)}
			look := []solve.Option{solve.WithTol(1e-6), solve.WithMaxIter(4000)}
			if pooled {
				name = system + "/pooled"
				pipe = append(pipe, solve.WithPool(pool))
				look = append(look, solve.WithPool(pool))
			}
			run := func(method string, opts []solve.Option, extra ...solve.Option) *solve.Result {
				res, err := solve.MustNew(method).Solve(a, b, append(opts[:len(opts):len(opts)], extra...)...)
				if err != nil {
					t.Fatalf("%s %s: %v", name, method, err)
				}
				return res
			}
			ref := run("pipecg", pipe)
			sameSolve(t, name+" parcg-pipe vs pipecg", run("parcg-pipe", pipe), ref)
			sameSolve(t, name+" parcg-pipe+WithBlocking vs pipecg", run("parcg-pipe", pipe, solve.WithBlocking(true)), ref)
			sameSolve(t, name+" parcg+WithBlocking vs parcg", run("parcg", look, solve.WithBlocking(true)), run("parcg", look))
		}
	}
}

// TestPipelinedPooledIsSerial: a serial workspace takes a pipelined
// iteration's recurrences and reduction in one fused pass, a pooled one as
// six pooled calls and an issued pair (pipecg, parcg-pipe) or as the pooled
// fused update (gropp) — and the two return the same bits, counts and
// Syncs, so the unfused path stays pinned to the fused one.
func TestPipelinedPooledIsSerial(t *testing.T) {
	pool := vec.NewPoolMinChunk(3, 64)
	defer pool.Close()
	for _, system := range []string{"poisson2d_31", "poisson2d_64"} {
		a, b := goldenSystem(t, system)
		for _, method := range []string{"pipecg", "parcg-pipe", "gropp"} {
			serial, err := solve.MustNew(method).Solve(a, b, solve.WithTol(1e-8))
			if err != nil {
				t.Fatalf("%s %s: %v", system, method, err)
			}
			pooled, err := solve.MustNew(method).Solve(a, b, solve.WithTol(1e-8), solve.WithPool(pool))
			if err != nil {
				t.Fatalf("%s %s pooled: %v", system, method, err)
			}
			sameSolve(t, system+" "+method+" pooled vs serial", pooled, serial)
			if pooled.Stats != serial.Stats || pooled.Syncs != serial.Syncs {
				t.Errorf("%s %s: pooled %+v syncs %d, serial %+v syncs %d", system, method,
					pooled.Stats, pooled.Syncs, serial.Stats, serial.Syncs)
			}
		}
	}
}

// TestCGFamilyOneKernel: cgfused, parcg-cg and blockcg are cg's kernel
// and blockpcg is pcg's, each under another name. Every name answers
// with the bits, counts and Stats of the kernel's own name; parcg-cg is
// the one that times its phases and declares another sync count.
func TestCGFamilyOneKernel(t *testing.T) {
	a, b := goldenSystem(t, "poisson2d_31")
	jac, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	solveAs := func(method string, opts []solve.Option) *solve.Result {
		t.Helper()
		res, err := solve.MustNew(method).Solve(a, b, append([]solve.Option{solve.WithTol(1e-8)}, opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if res.Method != method {
			t.Errorf("Result.Method = %q, want %q", res.Method, method)
		}
		if (res.Phases != nil) != (method == "parcg-cg") {
			t.Errorf("%s: Phases non-nil = %v", method, res.Phases != nil)
		}
		return res
	}
	for _, c := range []struct {
		alias, kernel string
		opts          []solve.Option
	}{
		{"cgfused", "cg", nil},
		{"parcg-cg", "cg", nil},
		{"blockcg", "cg", nil},
		{"blockpcg", "pcg", []solve.Option{solve.WithPreconditioner(jac)}},
	} {
		got, want := solveAs(c.alias, c.opts), solveAs(c.kernel, c.opts)
		name := c.alias + " vs " + c.kernel
		sameSolve(t, name, got, want)
		if math.Float64bits(got.TrueResidualNorm) != math.Float64bits(want.TrueResidualNorm) {
			t.Errorf("%s: true residual %.17g, want %.17g", name, got.TrueResidualNorm, want.TrueResidualNorm)
		}
		if got.Stats != want.Stats {
			t.Errorf("%s: stats %+v, want %+v", name, got.Stats, want.Stats)
		}
		if c.alias != "parcg-cg" && got.Syncs != want.Syncs {
			t.Errorf("%s: %d syncs, want %d", name, got.Syncs, want.Syncs)
		}
	}
}

// settledGoroutines reports whether the goroutine count returns to
// base once dropped workspaces have been collected (their cleanups stop
// the reduction goroutines).
func settledGoroutines(base int) (int, bool) {
	var n int
	for i := 0; i < 200; i++ {
		runtime.GC()
		if n = runtime.NumGoroutine(); n <= base {
			return n, true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return n, false
}

// TestReducerLifecycle: reduction goroutines exist only for schedules
// that overlap — a blocking one (cg, pcg, pipecg) never starts any, nor
// does parcg-pipe on a serial workspace, whose sums are taken inside the
// pass that writes r and w — and they end with the workspace that started
// them, whether that was dropped with its session, with a Batch fork, or
// replaced because the system order changed.
func TestReducerLifecycle(t *testing.T) {
	a, small := sparse.Poisson2D(12), sparse.Poisson2D(9)
	B := rhsSet(a.Dim(), 6)
	base, _ := settledGoroutines(0)

	for _, method := range []string{"cg", "pcg", "pipecg", "parcg-pipe"} {
		sess, err := solve.NewSession(method, a, solve.WithTol(1e-8))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Solve(B[0]); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Errorf("%s session started %d goroutine(s)", method, n-base)
		}
	}

	func() {
		started := false
		for _, method := range []string{"parcg-pipe", "parcg"} {
			sess, err := solve.NewSession(method, a, solve.WithTol(1e-6), solve.WithMaxIter(2000))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Solve(B[0]); err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			started = started || runtime.NumGoroutine() > base
			if _, err := solve.Batch(sess, B, solve.WithBatchWorkers(3)); err != nil {
				t.Fatalf("%s batch: %v", method, err)
			}
			// One solver, two orders: the first workspace is replaced.
			s := solve.MustNew(method)
			for _, op := range []*sparse.CSR{a, small} {
				if _, err := s.Solve(op, B[1][:op.Dim()], solve.WithTol(1e-6), solve.WithMaxIter(2000)); err != nil {
					t.Fatalf("%s n=%d: %v", method, op.Dim(), err)
				}
			}
		}
		// parcg's batches do start one — unless there is one P, where the
		// workspace evaluates at issue.
		if want := runtime.GOMAXPROCS(0) > 1; started != want {
			t.Errorf("overlapped schedules started a reduction goroutine: %v, on %d P(s)", started, runtime.GOMAXPROCS(0))
		}
	}()

	if n, ok := settledGoroutines(base); !ok {
		t.Errorf("%d goroutine(s) outlive their dropped workspaces", n-base)
	}
}

// TestOnePEvaluatesAtIssue: on a host with one P a background reducer
// could only take turns with the solve, so parcg evaluates its reductions
// where it issues them — no goroutine is started — and returns what it
// returns with two: same bits, same counts, same Syncs. parcg-pipe on a
// serial workspace has nothing to hand a reducer on any number of Ps.
func TestOnePEvaluatesAtIssue(t *testing.T) {
	a := sparse.Poisson2D(24)
	b := rhsSet(a.Dim(), 1)[0]
	methods := []string{"parcg-pipe", "parcg"} // the one that starts nothing first
	run := func(procs int) []*solve.Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		base, _ := settledGoroutines(0)
		var out []*solve.Result
		for _, method := range methods {
			sess, err := solve.NewSession(method, a, solve.WithTol(1e-8))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Solve(b)
			if err != nil {
				t.Fatalf("%s on %d P(s): %v", method, procs, err)
			}
			want := method == "parcg" && procs > 1
			if started := runtime.NumGoroutine() > base; started != want {
				t.Errorf("%s on %d P(s): reduction goroutine started: %v", method, procs, started)
			}
			cp := *res
			cp.X = append([]float64(nil), res.X...)
			out = append(out, &cp)
		}
		return out
	}
	one, two := run(1), run(2)
	for i, method := range methods {
		sameSolve(t, method+" on one P", one[i], two[i])
		if one[i].Stats != two[i].Stats || one[i].Syncs != two[i].Syncs {
			t.Errorf("%s: one P %+v syncs %d, two %+v syncs %d", method, one[i].Stats, one[i].Syncs, two[i].Stats, two[i].Syncs)
		}
	}
}

// TestScheduleSessionsZeroAlloc: a warm session of each schedule that
// takes its inner products in batches and its vectors as combinations, or
// issues its sums from inside a fused pass, allocates nothing — the
// partials slabs and the issued job are the workspace's, the pair and
// term lists the kernel's.
func TestScheduleSessionsZeroAlloc(t *testing.T) {
	a := sparse.Poisson2D(40)
	b := rhsSet(a.Dim(), 1)[0]
	for _, method := range []string{"sstep", "parcg", "vrcg", "pipecg", "gropp", "parcg-pipe"} {
		sess, err := solve.NewSession(method, a, solve.WithTol(1e-6))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // the second solve is the first on a warm kernel
			if res, err := sess.Solve(b); err != nil || !res.Converged {
				t.Fatalf("%s: %+v, %v", method, res, err)
			}
		}
		if avg := testing.AllocsPerRun(5, func() { sess.Solve(b) }); avg != 0 {
			t.Errorf("%s: %v allocs per warm solve", method, avg)
		}
	}
}
