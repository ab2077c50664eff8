// What format auto-selection must never change: the work a solve
// reports, and the values it runs on. External-consumer style, like
// session_test.go.
package solve_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
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
// matrix and, since the band reproduces it, releases the CSR's arrays),
// replace the values, solve again — the second answer must be the one a
// freshly built matrix with those values, never released, gives: the
// same X bit for bit, iterations and Stats, for SetValues and for Scale.
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
		if got.Iterations != want.Iterations || got.Stats != want.Stats {
			t.Fatalf("after %s: %d iterations, %v; fresh matrix %d, %v", mu.name, got.Iterations, got.Stats, want.Iterations, want.Stats)
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

// TestSolveReleasesBandedCSR: a solve tunes Poisson3D(32) to its band,
// which reproduces it, so the CSR's arrays — 12 bytes an entry and 8 a
// row offset, 2.8 MiB — leave the live heap while the matrix stays
// alive; what the matrix keeps instead (the band's runs, the cached
// decision and row partition) is under 256 KiB.
func TestSolveReleasesBandedCSR(t *testing.T) {
	a := sparse.Poisson3D(32)
	n, nnz := a.Dim(), a.NNZ()
	arrays := uint64(12*nnz + 8*(n+1))
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%5)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	iters := func() int {
		res, err := solve.MustNew("cg").Solve(a, b, solve.WithTol(1e-8))
		if err != nil || !res.Converged {
			t.Fatalf("solve: %v, converged %v", err, err == nil && res.Converged)
		}
		return res.Iterations
	}()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc+arrays > before.HeapAlloc+256<<10 {
		t.Errorf("live heap %d → %d bytes across the solve (%d iterations); want it %d bytes (the arrays) lower, within 256 KiB",
			before.HeapAlloc, after.HeapAlloc, iters, arrays)
	}
	if a.NNZ() != nnz || a.MaxRowNonzeros() != 7 {
		t.Fatalf("released matrix counts NNZ %d (want %d), MaxRowNonzeros %d (want 7)", a.NNZ(), nnz, a.MaxRowNonzeros())
	}
	runtime.KeepAlive(a)
}

// TestParcgKeepsBandReleased: parcg's Gershgorin bound scans the tuned
// band, so a parcg solve on a Poisson2D(64) that a cg solve released
// leaves its arrays — 12 bytes an entry and 8 a row offset, 269 KiB —
// out of the live heap, where scanning the CSR on run.AT rebuilt and
// pinned them.
func TestParcgKeepsBandReleased(t *testing.T) {
	a := sparse.Poisson2D(64)
	n, nnz := a.Dim(), a.NNZ()
	arrays := uint64(12*nnz + 8*(n+1))
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%5)
	}
	var before, after runtime.MemStats
	for _, method := range []string{"cg", "parcg"} {
		res, err := solve.MustNew(method).Solve(a, b, solve.WithTol(1e-8))
		if err != nil || !res.Converged {
			t.Fatalf("%s: %v, converged %v", method, err, err == nil && res.Converged)
		}
		runtime.GC()
		runtime.GC()
		if method == "cg" {
			runtime.ReadMemStats(&before)
		}
	}
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc+arrays/2 {
		t.Errorf("live heap %d → %d bytes across the parcg solve; the arrays are %d bytes", before.HeapAlloc, after.HeapAlloc, arrays)
	}
	runtime.KeepAlive(a)
}

// TestReleaseConcurrent: eight goroutines take one CSR's first solve —
// which tunes it and may release its arrays — its rows, pooled products
// and Values at once, on fresh matrices round after round; each gets
// what a matrix that never releases gives, bit for bit, whichever of
// the release, a second first tuning and the pin lands first.
func TestReleaseConcurrent(t *testing.T) {
	const m = 24
	ref := sparse.Poisson2D(m)
	ref.Values() // pinned: never released
	n := ref.Dim()
	b, x := make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], x[i] = 1+float64(i%3), float64(i%7)-3
	}
	wantRes, err := solve.MustNew("cg").Solve(ref, b, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	wantAx := make([]float64, n)
	ref.MulVec(wantAx, x)
	wantVals := append([]float64(nil), ref.Values()...)
	type entry struct {
		i, j int
		v    float64
	}
	var wantRows []entry
	for i := 0; i < n; i++ {
		ref.ScanRow(i, func(j int, v float64) { wantRows = append(wantRows, entry{i, j, v}) })
	}
	sameBits := func(got, want []float64) bool {
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return len(got) == len(want)
	}

	for round := 0; round < 8; round++ {
		a := sparse.Poisson2D(m)
		start := make(chan struct{})
		errs := make(chan error, 8)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch g % 4 {
				case 0:
					res, err := solve.MustNew("cg").Solve(a, b, solve.WithTol(1e-10))
					if err != nil || res.Iterations != wantRes.Iterations || res.Stats != wantRes.Stats || !sameBits(res.X, wantRes.X) {
						errs <- fmt.Errorf("solve: %v, %d iterations (want %d), X same bits %v", err, res.Iterations, wantRes.Iterations, err == nil && sameBits(res.X, wantRes.X))
					}
				case 1:
					var rows []entry
					for i := 0; i < n; i++ {
						a.ScanRow(i, func(j int, v float64) { rows = append(rows, entry{i, j, v}) })
					}
					for k := range wantRows {
						if k >= len(rows) || rows[k] != wantRows[k] || math.Float64bits(rows[k].v) != math.Float64bits(wantRows[k].v) {
							errs <- fmt.Errorf("ScanRow: entry %d differs", k)
							return
						}
					}
				case 2:
					pool := sparse.NewPool(2)
					defer pool.Close()
					got := make([]float64, n)
					for rep := 0; rep < 3; rep++ {
						a.MulVecPool(pool, got, x)
						if !sameBits(got, wantAx) {
							errs <- fmt.Errorf("MulVecPool: product %d differs", rep)
							return
						}
					}
				case 3:
					if !sameBits(a.Values(), wantVals) {
						errs <- fmt.Errorf("Values differ")
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("round %d: %v", round, err)
		}
	}
}
