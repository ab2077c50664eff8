package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vrcg/internal/engine"
	"vrcg/solve"
	"vrcg/sparse"
)

// benchFleet boots a coordinator + n loopback workers for benchmarks.
func benchFleet(b *testing.B, n int) *Coordinator {
	b.Helper()
	c := NewCoordinator(CoordinatorConfig{
		HeartbeatInterval: time.Second,
		PlaceTimeout:      60 * time.Second,
	})
	b.Cleanup(func() { c.Close() })
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{HaloTimeout: 60 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { w.Close() })
		if _, err := c.AddWorker(w.Addr()); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func benchRHS(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 + float64(i%7)
	}
	return v
}

// BenchmarkClusterSolve compares sharded fleet solves against the
// single-process engine at n ≈ 1e5 and 4e5 (BENCH_cluster.json feeds
// the perf trajectory). The fleet pays wire latency per halo exchange
// and per reduction, so on one machine the serial engine should win;
// the number that matters is how small the gap is — it bounds the
// coordination overhead the distributed tier adds.
func BenchmarkClusterSolve(b *testing.B) {
	// Poisson2D(317) → n=100489, Poisson2D(632) → n=399424.
	const tol = 1e-6 // throughput measure; parity is the test suite's job
	for _, grid := range []int{317, 632} {
		a := sparse.Poisson2D(grid)
		n := a.Dim()
		rhs := benchRHS(n)

		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			s := solve.MustNew("cg")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(a, rhs, solve.WithTol(tol)); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("n=%d/sharded2", n), func(b *testing.B) {
			c := benchFleet(b, 2)
			if err := c.Place("op", a); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Solve(ctx, "op", "cg", rhs, SolveOpts{Tol: tol}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterReduction measures the per-iteration time each
// variant spends blocked on the global reduction — the paper's target
// quantity — and how many allreduce rounds it puts on the wire per
// iteration (rounds/iter; three rounds per solve are start-up and exit).
// cg and pcg block on two allreduce round trips per iteration; pipecg
// fuses both inner products into one reduction, gropp overlaps one of
// its two with the w = A·r matvec, and sstep pays two per block of four
// iterations. Reported as total reduction-wait µs per iteration per
// worker from the workers' own phase histograms. The shard is kept small so round-trip latency, not
// local compute, dominates: that isolates the synchronization count,
// which is what the variants change. (Overlap-style hiding additionally
// needs real spare cores to pay; fused-reduction savings do not.)
func BenchmarkClusterReduction(b *testing.B) {
	a := sparse.Poisson2D(100) // n = 10000
	rhs := benchRHS(a.Dim())
	const tol = 1e-6
	for _, method := range []string{"cg", "pcg", "pipecg", "gropp", "sstep"} {
		b.Run(method, func(b *testing.B) {
			c := benchFleet(b, 2)
			if err := c.Place("op", a); err != nil {
				b.Fatal(err)
			}
			opts := SolveOpts{Tol: tol}
			if method == "pcg" {
				opts.Precond = "jacobi"
			}
			ctx := context.Background()
			var spmvUS, haloUS, redUS, iterUS, roundsPerIter float64
			var iters int
			var rounds uint64
			c.testAfterCombine = func(_, seq uint64) { rounds = seq }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Solve(ctx, "op", method, rhs, opts)
				if err != nil {
					b.Fatal(err)
				}
				roundsPerIter += float64(rounds) / float64(res.Iterations)
				red := res.Phases["reduction"]
				if red.Count == 0 {
					b.Fatal("no reduction-phase observations")
				}
				// Total µs blocked in reductions per iteration per worker:
				// cg pays two allreduce round trips per iteration where
				// pipecg pays one fused reduce and gropp hides one of its
				// two behind the matvec.
				perIter := func(ps engine.HistSnapshot) float64 {
					return ps.Mean * float64(ps.Count) / float64(2*res.Iterations)
				}
				redUS += perIter(red)
				spmvUS += perIter(res.Phases["spmv"])
				haloUS += perIter(res.Phases["halo"])
				iterUS += res.Phases["iteration"].Mean
				iters += res.Iterations
			}
			b.ReportMetric(spmvUS/float64(b.N), "spmv_us/iter")
			b.ReportMetric(haloUS/float64(b.N), "halo_us/iter")
			b.ReportMetric(redUS/float64(b.N), "reduction_us/iter")
			b.ReportMetric(iterUS/float64(b.N), "iter_us")
			b.ReportMetric(float64(iters)/float64(b.N), "iters")
			b.ReportMetric(roundsPerIter/float64(b.N), "rounds/iter")
		})
	}
}
