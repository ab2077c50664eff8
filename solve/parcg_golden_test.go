package solve_test

import (
	"errors"
	"math"
	"testing"

	"vrcg/solve"
	"vrcg/sparse"
)

// Pre-rewrite golden trajectories for the parcg family, captured from
// the retired simulated-machine solvers (commit fcf32c0) on the
// goldenSystem fixtures. The real-parallel kernels must reproduce the
// same trajectories: iteration counts ±1, residual norms within a
// per-method relative tolerance.
//
// Why the tolerances differ by method:
//   - parcg-cg runs the identical two-reduction schedule, so only the
//     partial-sum order changed (machine per-processor partials vs the
//     canonical blocked tree); trajectories agree to roundoff.
//   - parcg-pipe reorders the scalar/update schedule across the
//     iteration boundary (value-identical in exact arithmetic); the
//     captured agreement is ~1e-13 absolute on ~4e-7 norms.
//   - parcg iterates k-deep scalar recurrences whose drift is
//     summation-order sensitive, and the old solver reported norms in
//     Gershgorin-scaled units (scale 8 on these stencils) where the new
//     kernel reports unscaled norms — the golden values below are the
//     captured values rescaled (×8). Iteration counts still agree ±1;
//     the norms agree to the recurrences' drift level (~2e-3 relative).
//
// The tol-1e-6 parcg rows are the ones the pre-rewrite solver could be
// captured at: its recurrence stalled below that on poisson2d_31. The
// kernel no longer does — its Krylov families are regrown on a schedule
// (internal/parcg regrowEvery), so it takes cg's iterations to any
// tolerance — and the tol-1e-8 parcg rows pin that: their golden values
// are the parcg-cg row's own, iteration count ±1 and residual within
// the same 1e-2. poisson2d_64 (lib-ladder's operator) was never captured
// from the retired solvers: its parcg-cg row is cg's own trajectory,
// there for the parcg row to be held to.
//
// Re-pinned with the regrowth: poisson2d_31/parcg at tol 1e-6, residual
// 5.8197951601930317e-05 → 6.0904787855117285e-05, still 59 iterations.
// The captured value was the retired solver's drifted recurrence; cg
// itself reads 6.0904913222103954e-05 at iteration 59, which the
// regrown recurrence now matches to 2e-6.
var parcgGoldenCases = []struct {
	system  string
	method  string
	tol     float64
	relTol  float64 // |res - golden| / golden ceiling
	iters   int
	resNorm float64
}{
	{"poisson2d_20", "parcg-cg", 1e-8, 1e-12, 42, 1.838739896641821e-07},
	{"poisson2d_20", "parcg-pipe", 1e-8, 1e-4, 42, 1.8387407807166988e-07},
	{"poisson2d_20", "parcg", 1e-6, 1e-2, 35, 2.7333340621817858e-05},
	{"poisson2d_31", "parcg-cg", 1e-8, 1e-12, 84, 3.9945070346561846e-07},
	{"poisson2d_31", "parcg-pipe", 1e-8, 1e-4, 84, 3.9945081389853115e-07},
	{"poisson2d_31", "parcg", 1e-6, 1e-2, 59, 6.0904787855117285e-05},
	{"poisson2d_31", "parcg", 1e-8, 1e-2, 84, 3.9945070346561846e-07},
	{"poisson2d_64", "parcg-cg", 1e-8, 1e-12, 161, 1.1631082644884524e-06},
	{"poisson2d_64", "parcg", 1e-8, 1e-2, 161, 1.1631082644884524e-06},
}

// TestParcgGoldenTrajectories is the rewrite acceptance gate: the
// real-parallel engine kernels against the simulated-machine solvers
// they replaced, serial and pooled. Runs under -race in CI, which also
// exercises the background-reducer handoff every iteration.
func TestParcgGoldenTrajectories(t *testing.T) {
	pool := sparse.NewPool(4)
	defer pool.Close()
	for _, g := range parcgGoldenCases {
		for _, pooled := range []bool{false, true} {
			name := g.system + "/" + g.method + "/serial"
			a, b := goldenSystem(t, g.system)
			opts := []solve.Option{solve.WithTol(g.tol), solve.WithMaxIter(4000)}
			if pooled {
				name = g.system + "/" + g.method + "/pooled"
				opts = append(opts, solve.WithPool(pool))
			}
			g := g
			t.Run(name, func(t *testing.T) {
				res, err := solve.MustNew(g.method).Solve(a, b, opts...)
				if err != nil {
					t.Fatalf("%s: %v", g.method, err)
				}
				if d := res.Iterations - g.iters; d < -1 || d > 1 {
					t.Errorf("iterations = %d, golden %d (tolerance ±1)", res.Iterations, g.iters)
				}
				if !res.Converged {
					t.Errorf("converged = false, golden true")
				}
				if rel := math.Abs(res.ResidualNorm-g.resNorm) / g.resNorm; rel > g.relTol {
					t.Errorf("ResidualNorm = %.17g, golden %.17g (rel %.3g > %g)",
						res.ResidualNorm, g.resNorm, rel, g.relTol)
				}
			})
		}
	}
}

// TestParcgPooledMatchesSerial pins the repo's reduction invariant on
// the new kernels: pooled and serial runs are bitwise identical,
// because the background reducer uses the same canonical blocked-tree
// combine the pool does.
func TestParcgPooledMatchesSerial(t *testing.T) {
	pool := sparse.NewPool(4)
	defer pool.Close()
	a, b := goldenSystem(t, "poisson2d_20")
	for _, method := range []string{"parcg-cg", "parcg-pipe", "parcg"} {
		t.Run(method, func(t *testing.T) {
			tol := 1e-8
			if method == "parcg" {
				tol = 1e-6
			}
			serial, err := solve.MustNew(method).Solve(a, b,
				solve.WithTol(tol), solve.WithMaxIter(4000))
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := solve.MustNew(method).Solve(a, b,
				solve.WithTol(tol), solve.WithMaxIter(4000), solve.WithPool(pool))
			if err != nil {
				t.Fatal(err)
			}
			if serial.Iterations != pooled.Iterations || serial.ResidualNorm != pooled.ResidualNorm {
				t.Fatalf("serial (%d, %.17g) != pooled (%d, %.17g)",
					serial.Iterations, serial.ResidualNorm, pooled.Iterations, pooled.ResidualNorm)
			}
			for i := range serial.X {
				if serial.X[i] != pooled.X[i] {
					t.Fatalf("X[%d] differs between serial and pooled", i)
				}
			}
		})
	}
}

// TestParcgBlockingBitIdentical pins that WithBlocking only changes
// the schedule (anchor batches waited at issue), never the arithmetic:
// iterations, residuals, and the solution are bit-identical to the
// pipelined default.
func TestParcgBlockingBitIdentical(t *testing.T) {
	for _, system := range []string{"poisson2d_20", "poisson2d_31"} {
		t.Run(system, func(t *testing.T) {
			a, b := goldenSystem(t, system)
			def, err := solve.MustNew("parcg").Solve(a, b,
				solve.WithTol(1e-6), solve.WithMaxIter(4000))
			if err != nil {
				t.Fatal(err)
			}
			blk, err := solve.MustNew("parcg").Solve(a, b,
				solve.WithTol(1e-6), solve.WithMaxIter(4000), solve.WithBlocking(true))
			if err != nil {
				t.Fatal(err)
			}
			if def.Iterations != blk.Iterations || def.ResidualNorm != blk.ResidualNorm {
				t.Fatalf("default (%d, %.17g) != blocking (%d, %.17g)",
					def.Iterations, def.ResidualNorm, blk.Iterations, blk.ResidualNorm)
			}
			for i := range def.X {
				if def.X[i] != blk.X[i] {
					t.Fatalf("X[%d] differs between default and blocking", i)
				}
			}
			if blk.Syncs <= def.Syncs {
				t.Errorf("blocking Syncs = %d, want > default %d (one stall per anchor)",
					blk.Syncs, def.Syncs)
			}
		})
	}
}

// TestParcgSharpeningImprovement pins a deliberate behavior change of
// the rewrite: the convergence-sharpening direct dot lets parcg reach
// tol 1e-8 on poisson2d_20, where the retired solver's recurrence
// falsely stalled. (poisson2d_31, where the retired solver stalled at
// ~1e-6, is a golden row above: 84 iterations, cg's count.)
func TestParcgSharpeningImprovement(t *testing.T) {
	a, b := goldenSystem(t, "poisson2d_20")
	res, err := solve.MustNew("parcg").Solve(a, b,
		solve.WithTol(1e-8), solve.WithMaxIter(4000))
	if err != nil {
		t.Fatalf("parcg at 1e-8 on poisson2d_20: %v", err)
	}
	if !res.Converged {
		t.Fatal("parcg at 1e-8 on poisson2d_20 did not converge")
	}
	norm := 0.0
	for _, v := range b {
		norm += v * v
	}
	if res.TrueResidualNorm > 1e-8*math.Sqrt(norm)*10 {
		t.Errorf("true residual %.3g far above the claimed tolerance", res.TrueResidualNorm)
	}
}

// TestParcgPhasesPopulated pins the phase-histogram surface: the parcg
// family publishes Result.Phases with one observation set per
// iteration, and the other methods leave it nil.
func TestParcgPhasesPopulated(t *testing.T) {
	a, b := goldenSystem(t, "poisson2d_20")
	for _, method := range []string{"parcg-cg", "parcg-pipe", "parcg"} {
		t.Run(method, func(t *testing.T) {
			res, err := solve.MustNew(method).Solve(a, b,
				solve.WithTol(1e-6), solve.WithMaxIter(4000))
			if err != nil {
				t.Fatal(err)
			}
			if res.Phases == nil {
				t.Fatal("Result.Phases is nil for a parcg method")
			}
			for p, h := range res.Phases {
				if h.Count == 0 {
					t.Errorf("phase %d has zero observations", p)
				}
				var sum uint64
				for _, c := range h.Buckets {
					sum += c
				}
				if sum != h.Count {
					t.Errorf("phase %d: bucket sum %d != count %d", p, sum, h.Count)
				}
			}
		})
	}
	res, err := solve.MustNew("cg").Solve(a, b, solve.WithTol(1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != nil {
		t.Error("Result.Phases non-nil for cg")
	}
}

// TestParcgMachineModeReplay pins the instrumented machine mode as a
// monitor: WithProcessors layers simulated Clocks/Machine over the
// real solve without changing its numerics, and rejects non-CSR
// operators (the replay partitions by sparsity).
func TestParcgMachineModeReplay(t *testing.T) {
	a, b := goldenSystem(t, "poisson2d_20")
	for _, method := range []string{"parcg-cg", "parcg-pipe", "parcg"} {
		t.Run(method, func(t *testing.T) {
			tol := 1e-8
			if method == "parcg" {
				tol = 1e-6
			}
			plain, err := solve.MustNew(method).Solve(a, b,
				solve.WithTol(tol), solve.WithMaxIter(4000))
			if err != nil {
				t.Fatal(err)
			}
			inst, err := solve.MustNew(method).Solve(a, b,
				solve.WithTol(tol), solve.WithMaxIter(4000), solve.WithProcessors(8))
			if err != nil {
				t.Fatal(err)
			}
			if inst.Iterations != plain.Iterations || inst.ResidualNorm != plain.ResidualNorm {
				t.Fatalf("machine mode changed the numerics: (%d, %g) vs (%d, %g)",
					inst.Iterations, inst.ResidualNorm, plain.Iterations, plain.ResidualNorm)
			}
			if len(inst.Clocks) != inst.Iterations {
				t.Errorf("Clocks has %d entries for %d iterations", len(inst.Clocks), inst.Iterations)
			}
			for i := 1; i < len(inst.Clocks); i++ {
				if inst.Clocks[i] <= inst.Clocks[i-1] {
					t.Fatalf("Clocks not strictly increasing at %d", i)
				}
			}
			if inst.Machine == nil {
				t.Error("Machine stats nil in machine mode")
			}
			if plain.Clocks != nil || plain.Machine != nil {
				t.Error("Clocks/Machine populated without machine mode")
			}
		})
	}
	t.Run("non-csr-rejected", func(t *testing.T) {
		shim := opShim{a}
		_, err := solve.MustNew("parcg-cg").Solve(shim, b,
			solve.WithTol(1e-8), solve.WithMaxIter(4000), solve.WithProcessors(4))
		if !errors.Is(err, solve.ErrUnsupportedOperator) {
			t.Fatalf("err = %v, want ErrUnsupportedOperator", err)
		}
	})
}

// opShim hides the concrete *sparse.CSR type from the adapter.
type opShim struct{ a *sparse.CSR }

func (o opShim) Dim() int                { return o.a.Dim() }
func (o opShim) MulVec(dst, x []float64) { o.a.MulVec(dst, x) }
