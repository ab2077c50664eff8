package main

import (
	"errors"
	"fmt"
	"math"

	"vrcg/internal/depth"
	"vrcg/internal/machine"
	"vrcg/internal/trace"
	"vrcg/internal/vec"
	"vrcg/solve"
	"vrcg/sparse"
)

// usable reports whether a solve outcome is meaningful for
// tabulation: clean convergence, or the honest not-converged result
// (the tables report the converged column themselves).
func usable(err error) bool { return err == nil || errors.Is(err, solve.ErrNotConverged) }

// tablePool is the pool the numeric experiment tables (E4/E5/E6) pass
// to the solvers, so they exercise the engine. Pooled reductions are
// bitwise serial by construction, so the printed floating-point values
// (drift, residuals) do not depend on it; the worker count is pinned
// rather than host-sized so what the tables exercise does not either.
var tablePool = vec.NewPool(4)

// e1DepthScaling regenerates the headline comparison (claims C1 and C4):
// per-iteration parallel time of standard CG (~2 log2 N) versus the
// restructured algorithm with k = log2 N (~log log N), in the paper's
// dependency-depth unit.
func e1DepthScaling() *table {
	t := &table{
		ID:      "E1",
		Title:   "per-iteration parallel time: standard CG ~ c*log(N) vs VRCG(k=log N) ~ c*log(log N)",
		Columns: []string{"log2(N)", "N", "CG", "VRCG(k=logN)", "speedup", "2*log2(N)", "log2(6k+5)+c"},
	}
	d := 5
	for _, lg := range []int{6, 8, 10, 12, 14, 16, 18, 20, 22} {
		n := 1 << lg
		cg := depth.CGRate(n, d)
		vr := depth.VRCGRate(n, d, lg)
		t.AddRow(lg, n, cg, vr, cg/vr, 2*lg, depth.Log2Ceil(6*lg+5)+4)
	}
	t.Notes = append(t.Notes,
		"expected shape: CG column grows ~2 per unit of log2(N); VRCG column near-flat (double-log)",
		"speedup grows ~ log(N)/log(log(N)); model: 2D 5-point stencil (d=5)")
	return t
}

// e2Doubling regenerates claim C2 (§3): the k=1 one-step recurrence
// approximately doubles parallel speed.
func e2Doubling() *table {
	t := &table{
		ID:      "E2",
		Title:   "k=1 look-ahead approximately doubles parallel speed (paper §3)",
		Columns: []string{"log2(N)", "CG", "VRCG(k=1)", "ratio"},
	}
	d := 5
	for _, lg := range []int{8, 12, 16, 20, 24, 28} {
		n := 1 << lg
		cg := depth.CGRate(n, d)
		vr := depth.VRCGRate(n, d, 1)
		t.AddRow(lg, cg, vr, cg/vr)
	}
	t.Notes = append(t.Notes, "expected shape: ratio approaches 2 from below as N grows")
	return t
}

// e3DegreeSweep regenerates claim C6 (§6): per-iteration time of the
// restructured algorithm is max(log d, log log N) + O(1).
func e3DegreeSweep() *table {
	t := &table{
		ID:      "E3",
		Title:   "VRCG per-iteration time = max(log d, log log N) + O(1) (paper §6)",
		Columns: []string{"d", "log2(d)", "rate(N=2^14)", "rate(N=2^20)", "rate(N=2^26)"},
	}
	for _, d := range []int{3, 5, 7, 9, 27, 128, 1024, 4096, 16384} {
		t.AddRow(d, depth.Log2Ceil(d),
			depth.VRCGRate(1<<14, d, 14),
			depth.VRCGRate(1<<20, d, 20),
			depth.VRCGRate(1<<26, d, 26))
	}
	t.Notes = append(t.Notes,
		"expected shape: flat in d below the crossover log(d) ~ log(log N)+c, then slope ~1 per log2(d)",
		"columns differ only via the scalar-contraction (log log N) term")
	return t
}

// e4SequentialCost regenerates claim C7 (§6): sequential complexity of
// the restructured algorithm is essentially that of standard CG — one
// matvec per iteration; direct inner products O(1) per iteration.
func e4SequentialCost() *table {
	t := &table{
		ID:    "E4",
		Title: "sequential cost per iteration (paper §6: still ~2 inner products + 1 matvec)",
		Columns: []string{"method", "k", "iters", "matvec/it", "dots/it", "updates/it",
			"flops/it", "converged"},
	}
	a := sparse.Poisson2D(24)
	n := a.Dim()
	b := vec.New(n)
	vec.Random(b, 101)

	row := func(name string, k interface{}, r *solve.Result) {
		it := float64(r.Iterations)
		t.AddRow(name, k, r.Iterations,
			float64(r.Stats.MatVecs)/it, float64(r.Stats.InnerProducts)/it,
			float64(r.Stats.VectorUpdates)/it, float64(r.Stats.Flops)/it, r.Converged)
	}
	if r, err := solve.MustNew("cg").Solve(a, b, solve.WithTol(1e-8)); usable(err) {
		row("CG", "-", r)
	}
	for _, k := range []int{1, 2, 4} {
		// Window-only re-anchoring = the paper-pure cost profile (one
		// matvec per iteration exactly). Large k may fail to converge
		// under this profile — the honest finite-precision price,
		// reported in the last column.
		r, err := solve.MustNew("vrcg").Solve(a, b, solve.WithLookahead(k), solve.WithTol(1e-8),
			solve.WithMaxIter(4000), solve.WithWindowOnlyReanchor(true), solve.WithPool(tablePool))
		if !usable(err) {
			continue
		}
		row("VRCG", k, r)
	}
	if r, err := solve.MustNew("sstep").Solve(a, b, solve.WithBlockSize(4), solve.WithTol(1e-8),
		solve.WithPool(tablePool)); usable(err) {
		row("s-step", 4, r)
	}
	if r, err := solve.MustNew("pipecg").Solve(a, b, solve.WithTol(1e-8)); usable(err) {
		row("PIPECG", "-", r)
	}
	t.Notes = append(t.Notes,
		"expected shape: matvec/it ~1 for CG, VRCG and PIPECG; VRCG dots/it ~3+O(1) amortized (paper claims 2 via unpublished recurrences)",
		"VRCG vector updates grow with k (family maintenance) — the sequential price of the look-ahead")
	return t
}

// e5Exactness regenerates claims C3/C5: the recurrence-produced scalars
// equal direct inner products (up to floating-point drift, which the
// table quantifies).
func e5Exactness() *table {
	t := &table{
		ID:      "E5",
		Title:   "recurrence scalars vs direct inner products: max relative drift (claims C3/C5)",
		Columns: []string{"k", "reanchor", "iters", "max drift (r,r)", "max drift (p,Ap)", "fallbacks"},
	}
	a := sparse.Poisson2D(16)
	b := vec.New(a.Dim())
	vec.Random(b, 77)
	for _, k := range []int{1, 2, 4, 6} {
		for _, re := range []int{-1, 4} {
			res, err := solve.MustNew("vrcg").Solve(a, b,
				solve.WithLookahead(k), solve.WithTol(1e-8), solve.WithMaxIter(3000),
				solve.WithValidateEvery(1), solve.WithReanchorEvery(re), solve.WithPool(tablePool))
			label := fmt.Sprintf("%d", re)
			if re < 0 {
				label = "never"
			}
			if !usable(err) {
				t.AddRow(k, label, "-", "breakdown", "breakdown", "-")
				continue
			}
			t.AddRow(k, label, res.Iterations, res.Drift.MaxRelRR, res.Drift.MaxRelPAP, res.Drift.FallbackDots)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: drift ~1e-12..1e-6 with re-anchoring; grows to O(1) (or breakdown) without — the",
		"finite-precision behaviour that motivated the stabilized successors (Chronopoulos-Gear, Ghysels-Vanroose)")
	return t
}

// e6Stability regenerates the implicit stability story: convergence of
// the look-ahead algorithm versus k and conditioning.
func e6Stability() *table {
	t := &table{
		ID:      "E6",
		Title:   "numerical robustness vs look-ahead k and conditioning (successor-motivating behaviour)",
		Columns: []string{"kappa", "method", "k", "iters", "true rel residual", "converged"},
	}
	n := 256
	for _, kappa := range []float64{10, 1e3, 1e5} {
		a := sparse.PrescribedSpectrum(n, kappa)
		b := vec.New(n)
		vec.Random(b, 7)
		bn := vec.Norm2(b)

		cg, err := solve.MustNew("cg").Solve(a, b, solve.WithTol(1e-10), solve.WithMaxIter(8000))
		if usable(err) {
			t.AddRow(kappa, "CG", "-", cg.Iterations, cg.TrueResidualNorm/bn, cg.Converged)
		}
		for _, k := range []int{1, 2, 4, 8} {
			vr, err := solve.MustNew("vrcg").Solve(a, b, solve.WithLookahead(k),
				solve.WithTol(1e-10), solve.WithMaxIter(8000), solve.WithPool(tablePool))
			if !usable(err) {
				t.AddRow(kappa, "VRCG", k, "-", "breakdown", false)
				continue
			}
			t.AddRow(kappa, "VRCG", k, vr.Iterations, vr.TrueResidualNorm/bn, vr.Converged)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: VRCG matches CG for small k / mild kappa; iteration counts inflate or solves fail",
		"as k and kappa grow — the monomial-basis instability later work fixed with better bases")
	return t
}

// e7Successors compares the 1983 algorithm against its published
// successors on the simulated machine across communication latencies.
func e7Successors() *table {
	t := &table{
		ID:    "E7",
		Title: "simulated machine, per-iteration parallel time vs latency alpha (P=256, n=4096, kappa~2.6)",
		Columns: []string{"alpha", "CG", "PIPECG", "VRCG(k=8)", "CG/VRCG",
			"pipelined total", "blocking total"},
	}
	a := sparse.TridiagToeplitz(4096, 4.2, -1)
	p := 256
	for _, alpha := range []float64{1, 8, 64, 512} {
		cfg := machine.Config{P: p, Alpha: alpha, Beta: 0.01, FlopTime: 0.001}
		bs := vec.New(a.Dim())
		vec.Random(bs, 55)

		run := func(method string, extra ...solve.Option) *solve.Result {
			opts := append([]solve.Option{
				solve.WithMachineConfig(cfg), solve.WithTol(1e-6), solve.WithMaxIter(120),
			}, extra...)
			res, err := solve.MustNew(method).Solve(a, bs, opts...)
			if !usable(err) {
				return nil
			}
			return res
		}
		rate := func(res *solve.Result) float64 {
			if res == nil {
				return math.NaN()
			}
			return res.PerIterTime()
		}
		total := func(res *solve.Result) float64 {
			if res == nil {
				return math.NaN()
			}
			return res.TotalTime()
		}
		cg := rate(run("parcg-cg"))
		pipe := rate(run("parcg-pipe"))
		vrRes := run("parcg", solve.WithLookahead(8))
		ssRes := run("parcg", solve.WithLookahead(8), solve.WithBlocking(true))
		t.AddRow(alpha, cg, pipe, rate(vrRes), cg/rate(vrRes), total(vrRes), total(ssRes))
	}
	t.Notes = append(t.Notes,
		"expected shape: at low alpha all comparable; as alpha grows CG pays 2 reductions/iter,",
		"PIPECG hides one, VRCG(k) hides them entirely: CG/VRCG grows with alpha",
		"the last two columns contrast pipelined anchors (the paper) with blocking anchors (s-step",
		"semantics): the once-per-block stall appears in total time, not the per-iteration median")
	return t
}

// e9Startup quantifies the paper's "after an initial start up" caveat:
// the restructured algorithm pays k+2 matvecs and 6k+6 inner products
// before iterating, so there is a break-even iteration count below
// which standard CG finishes first even on the parallel machine.
func e9Startup() *table {
	t := &table{
		ID:      "E9",
		Title:   "start-up cost and break-even ('after an initial start up', abstract)",
		Columns: []string{"log2(N)", "k", "startup (depth)", "CG/iter", "VRCG/iter", "break-even iters"},
	}
	d := 5
	for _, lg := range []int{10, 14, 18, 22} {
		n := 1 << lg
		k := lg
		// Start-up in the depth model: k+1 sequential matvecs to build
		// the families plus the first base reduction fan-in.
		startup := float64(k+1)*float64(1+depth.Log2Ceil(d)) + 1 + float64(1+depth.Log2Ceil(n))
		cg := depth.CGRate(n, d)
		vr := depth.VRCGRate(n, d, k)
		// Break-even: startup + j*vr <= j*cg  =>  j >= startup/(cg-vr).
		breakEven := math.Ceil(startup / (cg - vr))
		t.AddRow(lg, k, startup, cg, vr, breakEven)
	}
	t.Notes = append(t.Notes,
		"the look-ahead pays off after a handful of iterations; real solves run hundreds",
		"(startup = (k+1) matvec-depths + one full reduction fan-in)")
	return t
}

// e10WindowForm compares the paper's equation-(*) contraction accounting
// (per-iteration depth ~ log k = log log N) against the sliding-window
// formulation this repository implements (the recurrence details the
// paper deferred): the window form pipelines even the contraction,
// reaching O(1) per-iteration depth for k >= log N — beyond the paper's
// own bound.
func e10WindowForm() *table {
	t := &table{
		ID:      "E10",
		Title:   "beyond the paper: contraction form (log log N) vs sliding-window form (O(1))",
		Columns: []string{"log2(N)", "k", "CG", "contract form", "window form", "paper bound log2(6k+5)+c"},
	}
	d := 5
	for _, lg := range []int{10, 14, 18, 22, 26} {
		n := 1 << lg
		t.AddRow(lg, lg, depth.CGRate(n, d),
			depth.VRCGRate(n, d, lg),
			depth.VRCGWindowRate(n, d, lg),
			depth.Log2Ceil(6*lg+5)+4)
	}
	t.Notes = append(t.Notes,
		"the contract form tracks the paper's log log N bound; the window form is flat (O(1)):",
		"spreading the (*) summation across the k-iteration cascade removes the last log factor")
	return t
}

// e8Schedule returns the Figure 1 reproduction: the paper's
// data-movement diagram plus measured pipelined schedules in the depth
// model.
func e8Schedule(k int) string {
	if k < 1 {
		k = 4
	}
	out := "== E8: Figure 1 — principal data movement and the pipelined schedule ==\n\n"
	out += trace.Figure1(k)
	out += "\nPipelined schedule (VRCG, N=2^16, d=5, k=16):\n"
	out += trace.VRCGSchedule(1<<16, 5, 16, 24).Render(96)
	out += "\nSynchronous schedule (standard CG, same problem):\n"
	out += trace.StandardCGSchedule(1<<16, 5, 6).Render(96)
	return out
}

// All runs every tabular experiment in order.
func all() []*table {
	return []*table{
		e1DepthScaling(),
		e2Doubling(),
		e3DegreeSweep(),
		e4SequentialCost(),
		e5Exactness(),
		e6Stability(),
		e7Successors(),
		e9Startup(),
		e10WindowForm(),
	}
}
