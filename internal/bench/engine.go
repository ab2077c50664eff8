package bench

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/solve"
	"vrcg/sparse"
)

// usable reports whether a solve outcome is meaningful for
// tabulation: clean convergence, or the honest not-converged result
// (the tables report the converged column themselves).
func usable(err error) bool { return err == nil || errors.Is(err, solve.ErrNotConverged) }

// EnginePool is the worker pool the wall-clock ablation (A6) routes
// kernels through: the shared default engine (all CPUs).
var EnginePool = vec.DefaultPool

// TablePool is the pool the numeric experiment tables (E4/E5/E6) pass
// to the solvers, so they exercise the engine. Pooled reductions are
// bitwise serial by construction, so the printed floating-point values
// (drift, residuals) do not depend on it; the worker count is pinned
// rather than host-sized so what the tables exercise does not either.
var TablePool = vec.NewPool(4)

// timeIt runs f repeatedly until ~minDuration has elapsed and returns
// the mean time per call in microseconds.
func timeIt(minDuration time.Duration, f func()) float64 {
	f() // warm caches, workers, partitions
	var elapsed time.Duration
	calls := 0
	for elapsed < minDuration {
		start := time.Now()
		f()
		elapsed += time.Since(start)
		calls++
	}
	return float64(elapsed.Microseconds()) / float64(calls)
}

// A6EngineThroughput isolates the execution engine itself: wall-clock of
// the serial kernels against the persistent-pool kernels, plus the
// steady-state allocation count of a Workspace PCG solve. On a
// single-core host the pooled columns should match serial (the engine
// falls back); on multicore they should beat it at these sizes.
func A6EngineThroughput() *Table {
	t := &Table{
		ID:      "A6",
		Title:   fmt.Sprintf("ablation: execution engine, serial vs pooled kernels (workers=%d)", EnginePool.Workers()),
		Columns: []string{"kernel", "n", "serial us/op", "pooled us/op", "speedup"},
	}
	const budget = 20 * time.Millisecond

	n := 1 << 18
	x := vec.New(n)
	y := vec.New(n)
	vec.Random(x, 1)
	vec.Random(y, 2)
	var sink float64
	serialDot := timeIt(budget, func() { sink += vec.Dot(x, y) })
	pooledDot := timeIt(budget, func() { sink += EnginePool.Dot(x, y) })
	t.AddRow("dot", n, serialDot, pooledDot, serialDot/pooledDot)

	serialAxpy := timeIt(budget, func() { vec.Axpy(1e-9, x, y) })
	pooledAxpy := timeIt(budget, func() { EnginePool.Axpy(1e-9, x, y) })
	t.AddRow("axpy", n, serialAxpy, pooledAxpy, serialAxpy/pooledAxpy)

	a := sparse.Poisson2D(256) // n = 65536, nnz ~ 327k
	ax := vec.New(a.Dim())
	ay := vec.New(a.Dim())
	vec.Random(ax, 3)
	serialSpMV := timeIt(budget, func() { a.MulVec(ay, ax) })
	pooledSpMV := timeIt(budget, func() { a.MulVecPool(EnginePool, ay, ax) })
	t.AddRow("SpMV poisson2d", a.Dim(), serialSpMV, pooledSpMV, serialSpMV/pooledSpMV)

	jac, err := precond.NewJacobi(a)
	if err == nil {
		b := vec.New(a.Dim())
		vec.Random(b, 4)
		// Two pcg solvers from the registry, one serial and one on the
		// engine pool; each keeps its workspace warm across the timing
		// loop, so this measures the steady-state regime.
		serialOpts := []solve.Option{solve.WithPreconditioner(jac), solve.WithTol(1e-6), solve.WithMaxIter(25)}
		pooledOpts := append([]solve.Option{solve.WithPool(EnginePool)}, serialOpts...)
		serialSolver := solve.MustNew("pcg")
		serialPCG := timeIt(budget, func() {
			if _, err := serialSolver.Solve(a, b, serialOpts...); !usable(err) {
				panic(err)
			}
		})
		pooledSolver := solve.MustNew("pcg")
		pooledPCG := timeIt(budget, func() {
			if _, err := pooledSolver.Solve(a, b, pooledOpts...); !usable(err) {
				panic(err)
			}
		})
		t.AddRow("PCG 25 iters", a.Dim(), serialPCG, pooledPCG, serialPCG/pooledPCG)
	}

	_ = sink
	t.Notes = append(t.Notes,
		fmt.Sprintf("host: %d CPU(s); pooled kernels fall back to serial below fixed per-opcode cutoffs",
			runtime.GOMAXPROCS(0)),
		"the PCG row also swaps per-solve allocation (plain PCG) for a zero-allocation Workspace")
	return t
}
