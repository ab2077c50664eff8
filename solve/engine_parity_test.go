package solve_test

import (
	"math"
	"testing"

	"vrcg/precond"
	"vrcg/solve"
	"vrcg/sparse"
)

// goldenCase pins one engine result on the systems built by
// goldenSystem. The contract is unchanged since the engine unification
// (iterations ±1 and residual norms within 1e-12 of the per-silo
// implementations at commit d9f0487); the pinned norms were re-captured
// when the vec kernels moved to canonical blocked-tree reductions,
// which permutes floating-point summation order and shifts residual
// trajectories in the last few digits (iteration counts were identical
// before and after). Any future change that moves a norm by more than
// 1e-12 must be justified the same way: a deliberate, documented
// summation-order change, never a silent numerical drift.
//
// poisson2d_20/vrcg was re-pinned (1.8387398967764855e-07 /
// 1.838739141778217e-07 before, |diff| 2.8e-11) when
// core.DefaultReanchorInterval moved from every 3 to every 6 iterations
// at the default k=2: the windows are recomputed from direct inner
// products half as often, so the recurrence values between re-anchors
// carry six steps of rounding instead of three. Still 42 iterations;
// poisson2d_31/vrcg stayed inside 1e-12.
type goldenCase struct {
	system     string
	method     string
	iterations int
	converged  bool
	resNorm    float64
	trueRes    float64
}

var goldenCases = []goldenCase{
	{"poisson2d_20", "cg", 42, true, 1.8387398966418245e-07, 1.8387395118776079e-07},
	{"poisson2d_20", "cgfused", 42, true, 1.8387398966418245e-07, 1.8387395118776079e-07},
	{"poisson2d_20", "pcg", 42, true, 1.8387398966418245e-07, 1.8387395118776079e-07},
	{"poisson2d_20", "cr", 41, true, 3.8963902768109237e-07, 3.8963903024604996e-07},
	{"poisson2d_20", "sd", 1560, true, 4.2030727599913952e-07, 4.2030704396692528e-07},
	{"poisson2d_20", "minres", 41, true, 3.8963902768109565e-07, 3.8963899321972399e-07},
	{"poisson2d_20", "vrcg", 42, true, 1.8390200978089607e-07, 1.8390189692767524e-07},
	{"poisson2d_20", "pipecg", 42, true, 1.8387395526824418e-07, 1.8387444264837361e-07},
	{"poisson2d_20", "gropp", 42, true, 1.8387398966418255e-07, 1.8387391745284183e-07},
	{"poisson2d_20", "sstep", 42, true, 1.8387400367165679e-07, 1.838740631731661e-07},
	{"poisson2d_31", "cg", 84, true, 3.9945070346561036e-07, 3.9945099050476142e-07},
	{"poisson2d_31", "cgfused", 84, true, 3.9945070346561036e-07, 3.9945099050476142e-07},
	{"poisson2d_31", "pcg", 84, true, 3.9945070346561036e-07, 3.9945099050476142e-07},
	{"poisson2d_31", "cr", 82, true, 5.769478811200778e-07, 5.7694766843843447e-07},
	{"poisson2d_31", "sd", 3548, true, 6.5046830306364443e-07, 6.504689484722201e-07},
	{"poisson2d_31", "minres", 82, true, 5.7694788112022296e-07, 5.7694807916136863e-07},
	{"poisson2d_31", "vrcg", 84, true, 3.9945070352034399e-07, 3.9945068487465944e-07},
	{"poisson2d_31", "pipecg", 84, true, 3.9945021442723095e-07, 3.994671500946203e-07},
	{"poisson2d_31", "gropp", 84, true, 3.994507034658065e-07, 3.994508424389972e-07},
	{"poisson2d_31", "sstep", 84, true, 3.9945070556719588e-07, 3.9945077876580604e-07},
}

func goldenSystem(t *testing.T, name string) (*sparse.CSR, []float64) {
	t.Helper()
	m := map[string]int{"poisson2d_20": 20, "poisson2d_31": 31, "poisson2d_64": 64}[name]
	if m == 0 {
		t.Fatalf("unknown golden system %q", name)
	}
	a := sparse.Poisson2D(m)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%7)/3
	}
	return a, b
}

// TestEnginePrePostRefactorParity is the acceptance-criterion parity
// test: every engine-backed method reproduces its pre-refactor
// iteration count (±1) and residual norms (within 1e-12) on fixed
// systems. It runs under -race in CI (make check).
func TestEnginePrePostRefactorParity(t *testing.T) {
	systems := map[string]struct {
		a *sparse.CSR
		b []float64
	}{}
	for _, name := range []string{"poisson2d_20", "poisson2d_31"} {
		a, b := goldenSystem(t, name)
		systems[name] = struct {
			a *sparse.CSR
			b []float64
		}{a, b}
	}
	for _, g := range goldenCases {
		g := g
		t.Run(g.system+"/"+g.method, func(t *testing.T) {
			sys := systems[g.system]
			opts := []solve.Option{solve.WithTol(1e-8), solve.WithMaxIter(4000)}
			if g.method == "pcg" {
				jac, err := precond.NewJacobi(sys.a)
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, solve.WithPreconditioner(jac))
			}
			res, err := solve.MustNew(g.method).Solve(sys.a, sys.b, opts...)
			if err != nil {
				t.Fatalf("%s: %v", g.method, err)
			}
			if d := res.Iterations - g.iterations; d < -1 || d > 1 {
				t.Errorf("iterations = %d, golden %d (tolerance ±1)", res.Iterations, g.iterations)
			}
			if res.Converged != g.converged {
				t.Errorf("converged = %v, golden %v", res.Converged, g.converged)
			}
			if d := math.Abs(res.ResidualNorm - g.resNorm); d > 1e-12 {
				t.Errorf("ResidualNorm = %.17g, golden %.17g (|diff| = %.3g > 1e-12)",
					res.ResidualNorm, g.resNorm, d)
			}
			if d := math.Abs(res.TrueResidualNorm - g.trueRes); d > 1e-12 {
				t.Errorf("TrueResidualNorm = %.17g, golden %.17g (|diff| = %.3g > 1e-12)",
					res.TrueResidualNorm, g.trueRes, d)
			}
		})
	}
}

// engineMethods is every shared-memory registry method — the set the
// acceptance criterion requires to be workspace-backed and
// zero-allocation through a warm Session.
var engineMethods = []string{"cg", "cgfused", "pcg", "cr", "sd", "minres", "vrcg", "pipecg", "gropp", "sstep"}

// allocMethods extends engineMethods with the real-parallel parcg
// family (background-reducer kernels) and blockcg/blockpcg, cg's and
// pcg's kernels under other names — every one must hold the warm
// zero-allocation contract too.
var allocMethods = append(append([]string{}, engineMethods...),
	"parcg-cg", "parcg-pipe", "parcg", "blockcg", "blockpcg")

// TestSessionZeroAllocAllMethods is the acceptance-criterion allocation
// test: a warm Session.Solve performs zero heap allocations for every
// engine-backed method, serial and pooled.
func TestSessionZeroAllocAllMethods(t *testing.T) {
	a := sparse.Poisson2D(24)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%5)
	}
	jac, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	pool := sparse.NewPool(4)
	defer pool.Close()

	for _, method := range allocMethods {
		for _, pooled := range []bool{false, true} {
			name := method + "/serial"
			opts := []solve.Option{solve.WithTol(1e-8)}
			switch method {
			case "pcg", "blockpcg":
				opts = append(opts, solve.WithPreconditioner(jac))
			case "parcg":
				// Reaching 1e-8 on this system takes the look-ahead
				// recurrences ~2300 guard-restarted iterations (a drift
				// property, not an allocation one); 1e-6 keeps the test on
				// the cheap pure-recurrence path.
				opts = []solve.Option{solve.WithTol(1e-6)}
			}
			if pooled {
				name = method + "/pooled"
				opts = append(opts, solve.WithPool(pool))
			}
			t.Run(name, func(t *testing.T) {
				sess, err := solve.NewSession(method, a, opts...)
				if err != nil {
					t.Fatal(err)
				}
				// Warm: spawn workers, build workspaces and kernel caches.
				if _, err := sess.Solve(b); err != nil {
					t.Fatal(err)
				}
				avg := testing.AllocsPerRun(10, func() {
					if _, err := sess.Solve(b); err != nil {
						t.Fatal(err)
					}
				})
				if avg != 0 {
					t.Errorf("%s: warm Session.Solve allocates %v/op, want 0", name, avg)
				}
			})
		}
	}
}

// TestSessionZeroAllocWithSELL repeats the allocation guard on a system
// the engine's format auto-selection converts to SELL-C-σ — large and
// not banded (a banded one goes to DIA, see the twin below): the
// conversion happens once on the first (warm) solve and is cached on
// the matrix, so warm pooled solves on the blocked format must still
// allocate nothing.
func TestSessionZeroAllocWithSELL(t *testing.T) {
	a := sparse.RandomSPD(4096, 6, 17) // above the SELL floor, entries on thousands of diagonals
	if _, ok := sparse.TuneMulVec(a).(*sparse.SELL); !ok {
		t.Fatal("test premise broken: TuneMulVec did not select SELL for randomspd n=4096")
	}
	pool := sparse.NewPool(4)
	defer pool.Close()
	warmSessionZeroAlloc(t, a, "SELL", solve.WithPool(pool))
}

// TestSessionZeroAllocWithDIA is the same guard on the format banded
// operators run on: Poisson2D(64) tunes to DIA, and warm sessions on it
// allocate nothing, serial and pooled.
func TestSessionZeroAllocWithDIA(t *testing.T) {
	a := sparse.Poisson2D(64)
	if _, ok := sparse.TuneMulVec(a).(*sparse.DIA); !ok {
		t.Fatal("test premise broken: TuneMulVec did not select DIA for poisson2d n=4096")
	}
	pool := sparse.NewPool(4)
	defer pool.Close()
	t.Run("serial", func(t *testing.T) { warmSessionZeroAlloc(t, a, "DIA", solve.WithPool(nil)) })
	t.Run("pooled", func(t *testing.T) { warmSessionZeroAlloc(t, a, "DIA", solve.WithPool(pool)) })
}

// warmSessionZeroAlloc asserts that a warm Session.Solve on a allocates
// nothing, for a blocking, an aliased and a pipelined method.
func warmSessionZeroAlloc(t *testing.T, a *sparse.CSR, format string, poolOpt solve.Option) {
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%5)
	}
	for _, method := range []string{"cg", "cgfused", "pipecg"} {
		t.Run(method, func(t *testing.T) {
			sess, err := solve.NewSession(method, a, solve.WithTol(1e-8), poolOpt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Solve(b); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(10, func() {
				if _, err := sess.Solve(b); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%s: warm Session.Solve on %s allocates %v/op, want 0", method, format, avg)
			}
		})
	}
}

// TestSessionResultsMatchSolve pins that the Session fast path and the
// ordinary Solve path produce identical outcomes for every engine
// method (same iterations, residuals, syncs, and solution).
func TestSessionResultsMatchSolve(t *testing.T) {
	a := sparse.Poisson2D(16)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%3)
	}
	for _, method := range engineMethods {
		t.Run(method, func(t *testing.T) {
			opts := []solve.Option{solve.WithTol(1e-9)}
			ref, err := solve.MustNew(method).Solve(a, b, opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := solve.NewSession(method, a, opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != ref.Iterations || res.Converged != ref.Converged {
				t.Fatalf("session iters/conv = %d/%v, solve %d/%v",
					res.Iterations, res.Converged, ref.Iterations, ref.Converged)
			}
			if res.ResidualNorm != ref.ResidualNorm || res.Syncs != ref.Syncs {
				t.Fatalf("session resnorm/syncs = %g/%d, solve %g/%d",
					res.ResidualNorm, res.Syncs, ref.ResidualNorm, ref.Syncs)
			}
			for i := range res.X {
				if res.X[i] != ref.X[i] {
					t.Fatalf("X[%d] differs between session and solve path", i)
				}
			}
		})
	}
}
