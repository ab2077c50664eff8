// Benchmarks for the public serving surface, persisted by `make bench`
// into BENCH_solve.json: what the registry dispatch costs over a direct
// internal call, what Session reuse saves over a fresh New per solve,
// and how Batch throughput scales with the right-hand-side count.
//
// Run:  go test -bench='SolveDispatch|SessionReuse|FreshSolve|Batch' -benchmem
package vrcg_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/precond"
	"vrcg/solve"
	"vrcg/sparse"
)

// benchSystem is the shared serving-shaped workload: a mid-size Poisson
// system solved to a loose tolerance, so per-solve framework overhead
// is visible next to the iteration work.
func benchSystem(m int) (*sparse.CSR, []float64) {
	a := sparse.Poisson2D(m)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	return a, b
}

// BenchmarkSolveDispatch measures the registry-dispatch overhead: the
// same CG solve through solve.New + Solver.Solve (per-call option
// parsing, canonical Result) vs the kernel run directly on an engine workspace.
func BenchmarkSolveDispatch(b *testing.B) {
	a, rhs := benchSystem(24)
	tol := 1e-8

	b.Run("registry", func(b *testing.B) {
		s := solve.MustNew("cg")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(a, rhs, solve.WithTol(tol)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		k, ws := krylov.NewCGKernel(), engine.NewWorkspace(a.Dim(), nil)
		o := engine.Config{Tol: tol}
		var res engine.Result
		if err := engine.Solve(k, ws, a, rhs, o, &res); err != nil { // fill the arena
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := engine.Solve(k, ws, a, rhs, o, &res); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSessionReuse is the amortized serving path: one prepared
// Session solving the same-order system repeatedly. Steady state must
// report 0 allocs/op (the acceptance criterion of the Session API).
func BenchmarkSessionReuse(b *testing.B) {
	a, rhs := benchSystem(24)
	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-8))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Solve(rhs); err != nil { // warm the workspace
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreshSolvePerCall is the contrast: a fresh solver (and
// workspace) built for every solve, the cost Session amortizes away.
func BenchmarkFreshSolvePerCall(b *testing.B) {
	a, rhs := benchSystem(24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := solve.MustNew("cg")
		if _, err := s.Solve(a, rhs, solve.WithTol(1e-8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionPerMethod is the full-registry serving baseline: a
// warm Session.Solve for every registered method, reporting ns/op and
// allocs/op per method so BENCH_solve.json tracks the whole registry's
// perf trajectory. Every engine-backed method — the real-parallel
// parcg family included — must report 0 allocs/op (the unified-engine
// acceptance criterion, gated by benchjson -gate-allocs in make
// bench).
func BenchmarkSessionPerMethod(b *testing.B) {
	a, rhs := benchSystem(24)
	jac, err := precond.NewJacobi(a)
	if err != nil {
		b.Fatal(err)
	}
	for _, method := range solve.Methods() {
		b.Run(method, func(b *testing.B) {
			opts := []solve.Option{solve.WithTol(1e-8)}
			if method == "pcg" {
				opts = append(opts, solve.WithPreconditioner(jac))
			}
			sess, err := solve.NewSession(method, a, opts...)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sess.Solve(rhs) // warm the workspace and kernel caches
			if err != nil && !errors.Is(err, solve.ErrNotConverged) {
				b.Fatal(err)
			}
			iters := res.Iterations
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Solve(rhs); err != nil && !errors.Is(err, solve.ErrNotConverged) {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(iters), "iters")
		})
	}
}

// BenchmarkParcgFamily pins the tentpole perf criterion at serving
// scale: the real-parallel parcg kernels against pipecg on an n≈1e5
// system, every method running a fixed 50-iteration budget (tolerance
// it cannot reach) so ns/op compares identical iteration counts. The
// acceptance bar is parcg-family ns/op within 2× of pipecg, at 0
// allocs/op warm.
func BenchmarkParcgFamily(b *testing.B) {
	a := sparse.Poisson2D(317) // n = 100489
	rhs := make([]float64, a.Dim())
	for i := range rhs {
		rhs[i] = 1 + float64(i%7)
	}
	pool := sparse.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	// A monitor stop pins the iteration count without tripping the
	// not-converged error path (which would bill error construction to
	// every method equally but hide the zero-alloc property).
	stop := solve.MonitorFunc(func(iter int, _ float64) bool { return iter < 50 })
	for _, method := range []string{"pipecg", "parcg-cg", "parcg-pipe", "parcg"} {
		b.Run(method, func(b *testing.B) {
			sess, err := solve.NewSession(method, a,
				solve.WithTol(1e-30), solve.WithMonitor(stop), solve.WithPool(pool))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Solve(rhs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Solve(rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatch measures multi-RHS throughput at 1, 8, and 64
// right-hand sides; the solves/s metric normalizes across counts so the
// fan-out win is directly readable.
func BenchmarkBatch(b *testing.B) {
	a, rhs := benchSystem(24)
	for _, nrhs := range []int{1, 8, 64} {
		B := make([][]float64, nrhs)
		for k := range B {
			bk := append([]float64(nil), rhs...)
			bk[k%len(bk)] += float64(k)
			B[k] = bk
		}
		b.Run(fmt.Sprintf("rhs=%d", nrhs), func(b *testing.B) {
			sess, err := solve.NewSession("cg", a, solve.WithTol(1e-8))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solve.Batch(sess, B); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(nrhs)*float64(b.N)/b.Elapsed().Seconds(), "solves/s")
		})
	}
}
