// What format auto-selection must never change: the work a solve
// reports, and the values it runs on. External-consumer style, like
// session_test.go.
package solve_test

import (
	"math"
	"testing"

	"vrcg/solve"
	"vrcg/sparse"
)

// handBuiltDIA copies a banded CSR into a NewDIA operator cell by cell.
func handBuiltDIA(a *sparse.CSR, offsets []int) *sparse.DIA {
	n := a.Dim()
	diags := make(map[int][]float64, len(offsets))
	for _, k := range offsets {
		dv := make([]float64, n)
		for i := range dv {
			if j := i + k; j >= 0 && j < n {
				dv[i] = a.At(i, j)
			}
		}
		diags[k] = dv
	}
	return sparse.NewDIA(n, diags)
}

// TestStatsIndependentOfFormat: cg on Poisson2D(20) reports the same
// Flops, MatVecs and Iterations whether the operator arrives as a CSR
// (which the engine tunes to DIA), as that tuned form, or as a
// hand-built DIA — the flop charge is 2·NNZ per product, and a DIA's
// NNZ is a field, not a rescan.
func TestStatsIndependentOfFormat(t *testing.T) {
	a := sparse.Poisson2D(20)
	tuned, ok := sparse.TuneMulVec(a).(*sparse.DIA)
	if !ok {
		t.Fatal("TuneMulVec(poisson2d n=400) did not select *sparse.DIA")
	}
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	ops := map[string]solve.Operator{"csr": a, "tuned": tuned, "hand-built": handBuiltDIA(a, tuned.Offsets())}
	ref, err := solve.MustNew("cg").Solve(a, b, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Flops == 0 || !ref.Converged {
		t.Fatalf("reference solve: flops %d converged %v", ref.Stats.Flops, ref.Converged)
	}
	for name, op := range ops {
		res, err := solve.MustNew("cg").Solve(op, b, solve.WithTol(1e-10))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Flops != ref.Stats.Flops || res.Stats.MatVecs != ref.Stats.MatVecs || res.Iterations != ref.Iterations {
			t.Errorf("%s: flops/matvecs/iterations = %d/%d/%d, CSR %d/%d/%d", name,
				res.Stats.Flops, res.Stats.MatVecs, res.Iterations,
				ref.Stats.Flops, ref.Stats.MatVecs, ref.Iterations)
		}
		for i := range res.X {
			if math.Float64bits(res.X[i]) != math.Float64bits(ref.X[i]) {
				t.Fatalf("%s: X[%d] differs from the CSR solve bitwise", name, i)
			}
		}
	}
}

// TestSetValuesNeverSolvesStale: solve (which caches the DIA form on the
// matrix), replace the values, solve again — the second answer must be
// the one a freshly built matrix with those values gives, bit for bit,
// for SetValues and for Scale.
func TestSetValuesNeverSolvesStale(t *testing.T) {
	a := sparse.Poisson2D(24)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%3)
	}
	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x0 := append([]float64(nil), first.X...)

	mutations := []struct {
		name  string
		apply func(m *sparse.CSR)
	}{
		{"SetValues", func(m *sparse.CSR) {
			vals := append([]float64(nil), m.Values()...)
			for i := range vals {
				vals[i] *= 3
			}
			m.SetValues(vals)
		}},
		{"Scale", func(m *sparse.CSR) { m.Scale(0.5) }},
	}
	fresh := sparse.Poisson2D(24)
	for _, mu := range mutations {
		mu.apply(a)
		mu.apply(fresh)
		got, err := sess.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solve.MustNew("cg").Solve(fresh.CloneValues(), b, solve.WithTol(1e-10))
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range got.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				t.Fatalf("after %s: X[%d] = %v, fresh matrix gives %v", mu.name, i, got.X[i], want.X[i])
			}
			same = same && got.X[i] == x0[i]
		}
		if same {
			t.Fatalf("after %s: solution unchanged — the solve ran on stale values", mu.name)
		}
	}
}
