// Claims conformance suite: every claim of Van Rosendale (1983), C1..C7
// and Figure 1 — the content cmd/cgbench prints as tables E1..E10, from
// the models ARCHITECTURE.md "What the paper's schedules cost" describes
// — asserted end to end against this implementation. Each test names the claim it checks and
// fails with the measured value if the reproduction drifts. The detailed
// per-module behaviour lives in the package test suites; this file is
// the paper-facing index.
package vrcg_test

import (
	"math"
	"testing"

	"vrcg/internal/core"
	"vrcg/internal/depth"
	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/internal/machine"
	"vrcg/internal/trace"
	"vrcg/internal/vec"
	"vrcg/solve"
	"vrcg/sparse"
)

// C1: "The inner product of two vectors of length N requires time
// c*log(N)" and standard CG is bound by two of them per iteration.
func TestClaimC1InnerProductBound(t *testing.T) {
	// The simulated machine's allreduce realizes the log-time fan-in:
	// doubling P from 512 to 1024 adds one round, not a factor.
	fanIn := func(p int) float64 {
		m := machine.New(machine.Config{P: p, Alpha: 1, Beta: 0, FlopTime: 0})
		m.Allreduce(1)
		return m.MaxClock()
	}
	if d := fanIn(1024) - fanIn(512); d > 1.5 {
		t.Fatalf("C1: fan-in not logarithmic: doubling P added %v", d)
	}
	// And standard CG's per-iteration depth grows as 2*log2(N).
	slope := (depth.CGRate(1<<20, 5) - depth.CGRate(1<<10, 5)) / 10
	if math.Abs(slope-2) > 0.3 {
		t.Fatalf("C1: CG depth slope per log2(N) = %.2f, want ~2", slope)
	}
}

// C2 (§3): the one-step recurrence "will approximately double the
// parallel speed of CG iteration".
func TestClaimC2Doubling(t *testing.T) {
	ratio := depth.CGRate(1<<26, 5) / depth.VRCGRate(1<<26, 5, 1)
	if ratio < 1.7 || ratio > 2.1 {
		t.Fatalf("C2: k=1 speedup %.3f, want ~2", ratio)
	}
}

// C3 (§4, equation *): the step scalars are linear combinations of the
// 6k+O(1) base inner products with coefficients polynomial in the
// parameter history.
func TestClaimC3StarEquation(t *testing.T) {
	k := 3
	a := sparse.Poisson2D(4)
	n := a.Dim()
	b := vec.New(n)
	vec.Random(b, 33)

	r := vec.Clone(b)
	p := vec.Clone(r)
	ap := vec.New(n)
	rr := vec.Dot(r, r)
	pows := sparse.PowerApply(a, r, 2*k+1)
	g := core.BaseGram{
		Mu:    make([]float64, 2*k+2),
		Nu:    make([]float64, 2*k+2),
		Omega: make([]float64, 2*k+2),
	}
	for i := 0; i <= 2*k+1; i++ {
		d := vec.Dot(r, pows[i])
		g.Mu[i], g.Nu[i], g.Omega[i] = d, d, d
	}
	cr, cp := core.NewCoeffR(), core.NewCoeffP()
	for it := 0; it < k; it++ {
		a.MulVec(ap, p)
		lambda := rr / vec.Dot(p, ap)
		vec.Axpy(-lambda, ap, r)
		rrNew := vec.Dot(r, r)
		alpha := rrNew / rr
		vec.Xpay(r, alpha, p)
		rr = rrNew
		cr, cp = core.StepCG(cr, cp, lambda, alpha)
	}
	got := g.Contract(cr, cr, 0)
	want := vec.Dot(r, r)
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Fatalf("C3: (*) contraction %g, direct %g", got, want)
	}
}

// C4 (abstract, §5): "After an initial start up, the new algorithm can
// perform a conjugate gradient iteration in time c*log(log(N))".
func TestClaimC4DoubleLogIteration(t *testing.T) {
	for _, lg := range []int{12, 18, 24} {
		rate := depth.VRCGRate(1<<lg, 5, lg)
		bound := float64(depth.Log2Ceil(6*lg+5)) + 8 // c*log(log N) with c small
		if rate > bound {
			t.Fatalf("C4: N=2^%d rate %.1f above log-log bound %.1f", lg, rate, bound)
		}
	}
	// And the machine realization: reductions leave the critical path.
	a := sparse.TridiagToeplitz(4096, 4.2, -1)
	cfg := machine.Config{P: 256, Alpha: 64, Beta: 0.01, FlopTime: 0.001}
	bs := vec.New(a.Dim())
	vec.Random(bs, 3)
	rate := func(method string, extra ...solve.Option) float64 {
		opts := append([]solve.Option{
			solve.WithMachineConfig(cfg), solve.WithTol(1e-6), solve.WithMaxIter(120),
		}, extra...)
		res, err := solve.MustNew(method).Solve(a, bs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerIterTime()
	}
	cg := rate("parcg-cg")
	vr := rate("parcg", solve.WithLookahead(8))
	if vr > 0.25*cg {
		t.Fatalf("C4 machine: VRCG %.1f not well below CG %.1f", vr, cg)
	}
}

// C5 (§5): one matrix-vector product per iteration; O(1) direct inner
// products; high powers of A never computed explicitly.
func TestClaimC5OperationEconomy(t *testing.T) {
	a := sparse.Poisson2D(12)
	b := vec.New(a.Dim())
	vec.Random(b, 5)
	k := 3
	res, err := engine.SolveOnce(core.NewKernel(), a, b, engine.Config{K: k, Tol: 1e-8, WindowOnlyReanchor: true})
	if err != nil {
		t.Fatal(err)
	}
	perIterMV := float64(res.Stats.MatVecs-(k+3)-res.Refreshes*(2*k+1)) / float64(res.Iterations) // minus startup (r0 + k+1 powers) and exit check
	if perIterMV > 1.01 {
		t.Fatalf("C5: %.3f matvecs per iteration, want 1", perIterMV)
	}
	// 3 direct tops + (6k+6)/interval re-anchor dots; with the adaptive
	// default interval of 2 at k=3 that is ~15 — O(1) regardless of N
	// (the paper claims 2 via recurrence details it never published).
	perIterDots := float64(res.Stats.InnerProducts) / float64(res.Iterations)
	if perIterDots > 18 {
		t.Fatalf("C5: %.1f direct inner products per iteration", perIterDots)
	}
}

// C6 (§6): "this algorithm requires parallel time
// max(log(d), log(log(N)))".
func TestClaimC6MaxBound(t *testing.T) {
	n := 1 << 20
	k := 20
	// Flat in d below the crossover...
	if a, b := depth.VRCGRate(n, 3, k), depth.VRCGRate(n, 27, k); a != b {
		t.Fatalf("C6: rate depends on d below crossover: %v vs %v", a, b)
	}
	// ...slope ~1 per log2(d) above it.
	slope := (depth.VRCGRate(n, 1<<14, k) - depth.VRCGRate(n, 1<<10, k)) / 4
	if math.Abs(slope-1) > 0.3 {
		t.Fatalf("C6: degree slope %.2f, want ~1", slope)
	}
}

// C7 (§6): "The sequential complexity of this algorithm is essentially
// the same as that of the usual CG algorithm."
func TestClaimC7SequentialEquivalence(t *testing.T) {
	a := sparse.Poisson2D(16)
	b := vec.New(a.Dim())
	vec.Random(b, 7)
	cg, err := engine.SolveOnce(krylov.NewCGKernel(), a, b, engine.Config{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	vr, err := engine.SolveOnce(core.NewKernel(), a, b, engine.Config{K: 2, Tol: 1e-8, WindowOnlyReanchor: true})
	if err != nil {
		t.Fatal(err)
	}
	if !vr.Converged {
		t.Fatal("C7: VRCG did not converge")
	}
	// Same iterations (same mathematics)...
	if diff := vr.Iterations - cg.Iterations; diff < -2 || diff > 2 {
		t.Fatalf("C7: iteration counts %d vs %d", vr.Iterations, cg.Iterations)
	}
	// ...and the same leading-order matvec cost (the flop overhead is a
	// bounded constant factor from family maintenance).
	if ratio := float64(vr.Stats.Flops) / float64(cg.Stats.Flops); ratio > 4 {
		t.Fatalf("C7: flop ratio %.2f too large", ratio)
	}
}

// Figure 1: the pipelined data movement — reductions from multiple
// iterations concurrently in flight.
func TestClaimFigure1Pipeline(t *testing.T) {
	tr := trace.VRCGSchedule(1<<16, 5, 16, 30)
	open := 0
	var reduces []trace.Event
	for _, e := range tr.Events {
		if e.Unit == trace.UnitReduce {
			reduces = append(reduces, e)
		}
	}
	for _, e := range reduces {
		cnt := 0
		for _, f := range reduces {
			if f.Start < e.End && e.Start < f.End {
				cnt++
			}
		}
		if cnt > open {
			open = cnt
		}
	}
	if open < 2 {
		t.Fatalf("Figure 1: only %d reductions concurrently in flight", open)
	}
}
