package solve_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vrcg/precond"
	"vrcg/solve"
	"vrcg/sparse"
)

// Property-based sweep: every registry method on randomized systems of
// the shapes it declares support for, under every preconditioner name.
// The properties are the ones every solver owes regardless of method:
//
//   - no panic and no unclassified error;
//   - Iterations never exceeds the iteration budget;
//   - a converged result's TRUE residual actually meets the tolerance
//     (with a drift allowance for the recurrence-based methods);
//   - a warm Session re-solve is bit-identical to its own cold solve —
//     workspace reuse is state, not memory.

// randSPD builds a random symmetric diagonally dominant (hence SPD)
// sparse system with a manufactured solution.
func randSPD(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
	coo := sparse.NewCOO(n)
	off := make([]float64, n)
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 4, 9} {
			j := i + d
			if j >= n {
				continue
			}
			if rng.Float64() < 0.3 {
				continue // irregular sparsity, not a fixed stencil
			}
			v := rng.NormFloat64()
			coo.AddSym(i, j, v)
			off[i] += math.Abs(v)
			off[j] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, off[i]+0.5+rng.Float64())
	}
	a := coo.ToCSR()
	xref := make([]float64, n)
	for i := range xref {
		xref[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, xref)
	return a, b
}

// randRect builds a random full-column-rank rows×cols least-squares
// system (rows > cols).
func randRect(rng *rand.Rand, rows, cols int) (*sparse.Rect, []float64) {
	rowPtr := make([]int, 1, rows+1)
	var colIdx []int
	var vals []float64
	for i := 0; i < rows; i++ {
		seen := map[int]bool{}
		// Guarantee coverage of every column across the first rows.
		if i < cols {
			seen[i] = true
			colIdx = append(colIdx, i)
			vals = append(vals, 2+rng.Float64())
		}
		for k := 0; k < 3; k++ {
			j := rng.Intn(cols)
			if seen[j] {
				continue
			}
			seen[j] = true
			colIdx = append(colIdx, j)
			vals = append(vals, rng.NormFloat64())
		}
		rowPtr = append(rowPtr, len(colIdx))
	}
	b := make([]float64, rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return sparse.NewRect(rows, cols, rowPtr, colIdx, vals), b
}

// preconditioner builds the named preconditioner for a, nil for "none".
func preconditioner(t *testing.T, name string, a *sparse.CSR) solve.Preconditioner {
	t.Helper()
	var (
		p   solve.Preconditioner
		err error
	)
	switch name {
	case "none":
		return nil
	case "jacobi":
		p, err = precond.NewJacobi(a)
	case "ssor":
		p, err = precond.NewSSOR(a, 1.2)
	case "ic0":
		p, err = precond.NewIC0(a)
	default:
		t.Fatalf("unknown preconditioner %q", name)
	}
	if err != nil {
		t.Fatalf("precond %s: %v", name, err)
	}
	return p
}

// knownSentinel reports whether an error is one of the classified
// outcomes a solve may legitimately end with.
func knownSentinel(err error) bool {
	return errors.Is(err, solve.ErrNotConverged) ||
		errors.Is(err, solve.ErrBreakdown) ||
		errors.Is(err, solve.ErrIndefinite)
}

// driftSlack is the per-method allowance multiplied into the
// true-residual acceptance threshold: the recurrence-tracked methods
// certify convergence through scalar recurrences that drift from the
// true residual in finite precision.
func driftSlack(method string) float64 {
	switch method {
	case "vrcg", "parcg", "sstep":
		return 1e3
	case "pipecg", "gropp", "parcg-pipe", "bicgstab":
		return 50
	default:
		return 10
	}
}

func TestPropertyAllMethodsRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	preconds := []string{"none", "jacobi", "ssor", "ic0"}
	const (
		tol     = 1e-7
		maxIter = 3000
	)
	for _, method := range solve.Methods() {
		caps := solve.MethodCaps(method)
		for _, pname := range preconds {
			for trial := 0; trial < 2; trial++ {
				n := 40 + rng.Intn(80)
				var (
					a  solve.Operator
					b  []float64
					mp solve.Preconditioner
				)
				switch {
				case caps.Rectangular:
					a, b = randRect(rng, n+n/2, n)
				case caps.Nonsymmetric:
					a = nonsymmetricCSR(rng, n)
					bb := make([]float64, n)
					for i := range bb {
						bb[i] = rng.NormFloat64()
					}
					b = bb
				default:
					var csr *sparse.CSR
					csr, b = randSPD(rng, n)
					a = csr
					mp = preconditioner(t, pname, csr)
				}
				name := method + "/" + pname
				t.Run(name, func(t *testing.T) {
					opts := []solve.Option{solve.WithTol(tol), solve.WithMaxIter(maxIter)}
					if mp != nil {
						opts = append(opts, solve.WithPreconditioner(mp))
					}
					res, err := solve.MustNew(method).Solve(a, b, opts...)
					if err != nil && !knownSentinel(err) {
						t.Fatalf("unclassified error: %v", err)
					}
					if res == nil {
						t.Fatal("nil result with a classified error")
					}
					if res.Iterations > maxIter {
						t.Errorf("Iterations = %d > MaxIter %d", res.Iterations, maxIter)
					}
					if res.Converged && !caps.Rectangular {
						bn := 0.0
						for _, v := range b {
							bn += v * v
						}
						bn = math.Sqrt(bn)
						if limit := tol * bn * driftSlack(method); res.TrueResidualNorm > limit {
							t.Errorf("converged but true residual %.3g > %.3g (tol*||b||*slack)",
								res.TrueResidualNorm, limit)
						}
					}
					if res.Converged && res.X != nil {
						for i, v := range res.X {
							if math.IsNaN(v) || math.IsInf(v, 0) {
								t.Fatalf("X[%d] = %v in a converged solution", i, v)
							}
						}
					}
				})
			}
		}
	}
}

// TestPropertyWarmSessionBitIdentical pins workspace-reuse determinism
// across the whole registry: on one random system per method, a cold
// Solve, a fresh Session's first solve, and the same Session's warm
// re-solve must agree bit-for-bit.
func TestPropertyWarmSessionBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const maxIter = 3000
	for _, method := range solve.Methods() {
		caps := solve.MethodCaps(method)
		t.Run(method, func(t *testing.T) {
			n := 60 + rng.Intn(40)
			var (
				a solve.Operator
				b []float64
			)
			switch {
			case caps.Rectangular:
				a, b = randRect(rng, n+n/2, n)
			case caps.Nonsymmetric:
				a = nonsymmetricCSR(rng, n)
				bb := make([]float64, n)
				for i := range bb {
					bb[i] = rng.NormFloat64()
				}
				b = bb
			default:
				a, b = randSPD(rng, n)
			}
			// A tolerance every method reaches on these well-conditioned
			// systems, loose enough for the drift-tracked recurrences.
			opts := []solve.Option{solve.WithTol(1e-6), solve.WithMaxIter(maxIter)}
			cold, err := solve.MustNew(method).Solve(a, b, opts...)
			if err != nil && !knownSentinel(err) {
				t.Fatalf("cold solve: %v", err)
			}
			sess, err := solve.NewSession(method, a, opts...)
			if err != nil {
				t.Fatalf("session: %v", err)
			}
			first, err := sess.Solve(b)
			if err != nil && !knownSentinel(err) {
				t.Fatalf("session first solve: %v", err)
			}
			firstX := append([]float64(nil), first.X...)
			firstIters, firstRes := first.Iterations, first.ResidualNorm
			warm, err := sess.Solve(b)
			if err != nil && !knownSentinel(err) {
				t.Fatalf("session warm solve: %v", err)
			}
			if cold.Iterations != firstIters || cold.ResidualNorm != firstRes {
				t.Errorf("cold (%d, %.17g) != session first (%d, %.17g)",
					cold.Iterations, cold.ResidualNorm, firstIters, firstRes)
			}
			if warm.Iterations != firstIters || warm.ResidualNorm != firstRes {
				t.Errorf("warm (%d, %.17g) != session first (%d, %.17g)",
					warm.Iterations, warm.ResidualNorm, firstIters, firstRes)
			}
			for i := range firstX {
				if warm.X[i] != firstX[i] {
					t.Fatalf("warm X[%d] differs from first session solve", i)
				}
				if cold.X[i] != firstX[i] {
					t.Fatalf("cold X[%d] differs from session solve", i)
				}
			}
		})
	}
}

// uniformRHS is a seeded direction uniform in [-1,1), scaled: the
// judged benchmark's generator, so seed 0 is lib-ladder's own rhs.
func uniformRHS(seed int64, n int, scale float64) []float64 {
	rng := rand.New(rand.NewSource(seed*0x9E3779B1 + 1))
	b := make([]float64, n)
	for i := range b {
		b[i] = scale * (2*rng.Float64() - 1)
	}
	return b
}

// TestPropertyParcgTracksCG pins what the scheduled regrowth of the
// look-ahead families bought (internal/parcg regrowEvery; the measured
// table is ARCHITECTURE.md's), so it cannot regress unseen: parcg's
// iteration count is cg's, whatever the right-hand side and however it
// is scaled, at three blocking reductions a solve; at look-ahead 2 and
// 3 it stays within 1.15× cg on the table's other operators; and
// whatever it labels converged is converged.
//
// The solves run one after another, are deterministic, and all take
// the same path through the background reducer, so -short (CI's
// -count=2 -race tier passes it: the detector costs ~60× on a vector
// kernel) keeps one direction of the ten and the four cheap operators.
func TestPropertyParcgTracksCG(t *testing.T) {
	const tol = 1e-8
	check := func(t *testing.T, a *sparse.CSR, b []float64, slack float64, opts ...solve.Option) *solve.Result {
		t.Helper()
		opts = append([]solve.Option{solve.WithTol(tol), solve.WithMaxIter(20000)}, opts...)
		ref, err := solve.MustNew("cg").Solve(a, b, opts...)
		if err != nil {
			t.Fatalf("cg: %v", err)
		}
		res, err := solve.MustNew("parcg").Solve(a, b, opts...)
		if err != nil {
			t.Fatalf("parcg: %v", err)
		}
		if float64(res.Iterations) > slack*float64(ref.Iterations)+1 || res.Iterations < ref.Iterations-1 {
			t.Errorf("parcg took %d iterations, cg %d (allowed %.2f× ± 1)", res.Iterations, ref.Iterations, slack)
		}
		bn := 0.0
		for _, v := range b {
			bn += v * v
		}
		if limit := 10 * tol * math.Sqrt(bn); !res.Converged || res.TrueResidualNorm > limit {
			t.Errorf("converged = %v with true residual %.3g (limit %.3g)", res.Converged, res.TrueResidualNorm, limit)
		}
		return res
	}

	ladder := sparse.Poisson2D(64)
	seeds := int64(10)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(0); seed < seeds; seed++ {
		for name, scale := range map[string]float64{"x1": 1, "x3": 3, "x2^-16": math.Ldexp(1, -16)} {
			t.Run(fmt.Sprintf("poisson2d_64/seed%d/%s", seed, name), func(t *testing.T) {
				res := check(t, ladder, uniformRHS(seed, ladder.Dim(), scale), 1)
				if res.Syncs > 4 {
					t.Errorf("Syncs = %d, want <= 4", res.Syncs)
				}
			})
		}
	}

	for _, op := range []struct {
		name  string
		a     *sparse.CSR
		heavy bool // ~10 s each under the race detector
	}{
		{"poisson2d_128", sparse.Poisson2D(128), true},
		{"poisson3d_24", sparse.Poisson3D(24), false},
		{"poisson1d_512", sparse.Poisson1D(512), false},
		{"randomspd_4096", sparse.RandomSPD(4096, 7, 1), false},
		{"spectrum_1e4", sparse.PrescribedSpectrum(2000, 1e4), false},
		{"spectrum_1e6", sparse.PrescribedSpectrum(2000, 1e6), true},
	} {
		for _, k := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/k%d", op.name, k), func(t *testing.T) {
				if op.heavy && testing.Short() {
					t.Skip("-short: the plain tier runs it")
				}
				check(t, op.a, uniformRHS(0, op.a.Dim(), 1), 1.15, solve.WithLookahead(k))
			})
		}
	}
}
