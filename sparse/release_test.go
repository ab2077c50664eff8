package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vrcg/internal/vec"
)

// releaseCases are the generators a band-tuned CSR comes from, at sizes
// whose diagonals stay whole and sizes that make runs (see DIA.finish).
func releaseCases(t *testing.T) map[string]func() *CSR {
	t.Helper()
	cases := map[string]func() *CSR{
		"poisson1d-50":        func() *CSR { return Poisson1D(50) },
		"poisson1d-20000":     func() *CSR { return Poisson1D(20000) },
		"poisson2d-16":        func() *CSR { return Poisson2D(16) },
		"poisson2d-128":       func() *CSR { return Poisson2D(128) },
		"poisson3d-8":         func() *CSR { return Poisson3D(8) },
		"poisson3d-32":        func() *CSR { return Poisson3D(32) },
		"toeplitz-300":        func() *CSR { return TridiagToeplitz(300, 2.5, -1.1) },
		"toeplitz-20000":      func() *CSR { return TridiagToeplitz(20000, 2.5, -1.1) },
		"rcm-poisson1d-500":   func() *CSR { return rcmGrid(t, 500) },
		"rcm-poisson1d-20000": func() *CSR { return rcmGrid(t, 20000) },
		"anisotropic-128":     func() *CSR { return anisotropic(t, 128) },
		"anisotropic-20":      func() *CSR { return anisotropic(t, 20) },
	}
	if !testing.Short() { // lib-stream's operator: most of the test's time under -race
		cases["poisson3d-64"] = func() *CSR { return Poisson3D(64) }
	}
	for _, kind := range allStencilKinds {
		if kind.Degree() > diaMaxDiags {
			continue // never a band
		}
		for _, m := range []int{6, 24} {
			cases[fmt.Sprintf("%v-%d", kind, m)] = func() *CSR { return kind.CSR(m) }
		}
	}
	return cases
}

// rcmGrid is a 1D grid of order n numbered at random and renumbered by
// RCM, which gives it back its band.
func rcmGrid(t *testing.T, n int) *CSR {
	shuffled, err := PermuteSymmetric(Poisson1D(n), rand.New(rand.NewSource(int64(n))).Perm(n))
	if err != nil {
		t.Fatal(err)
	}
	a, err := PermuteSymmetric(shuffled, RCMOrder(shuffled))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func anisotropic(t *testing.T, m int) *CSR {
	a, err := AnisotropicPoisson2D(m, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// tuneAndRelease runs TuneMulVec, as a solve does on entry, and reports
// whether m's arrays were released.
func tuneAndRelease(m *CSR) bool {
	TuneMulVec(m)
	return m.arrays.Load() == nil
}

// checkReadsLikeArrays holds every count, product and row read of a —
// released or not — to ref, the same matrix never tuned, bit for bit.
// The products and counts come first, so a released a is still released
// when checkProductsLikeArrays returns; the row reads then rebuild and
// pin its arrays.
func checkReadsLikeArrays(t *testing.T, name string, a, ref *CSR) {
	t.Helper()
	checkProductsLikeArrays(t, name, a, ref)
	checkRowsLikeArrays(t, name, a, ref)
}

// checkProductsLikeArrays holds a's counts and every product to ref's,
// bit for bit.
func checkProductsLikeArrays(t *testing.T, name string, a, ref *CSR) {
	t.Helper()
	n := a.Dim()
	if a.NNZ() != ref.NNZ() || a.MaxRowNonzeros() != ref.MaxRowNonzeros() || n != ref.Dim() {
		t.Fatalf("%s: counts %d/%d/%d, arrays %d/%d/%d", name, n, a.NNZ(), a.MaxRowNonzeros(), ref.Dim(), ref.NNZ(), ref.MaxRowNonzeros())
	}
	x := vec.New(n)
	vec.Random(x, uint64(n)+5)
	want1, got1 := vec.New(n), vec.New(n)
	rowLoop(ref, want1, x)
	vec.Fill(got1, math.NaN())
	a.MulVec(got1, x)
	if !bitsEqual(got1, want1) {
		t.Fatalf("%s: MulVec differs from the arrays' row loop", name)
	}
	for w := 1; w <= 3; w++ {
		pool := vec.NewPoolMinChunk(w, 1)
		vec.Fill(got1, math.NaN())
		a.MulVecPool(pool, got1, x)
		xs := [][]float64{x, vec.New(n), vec.New(n)}
		vec.Random(xs[1], 9)
		vec.Random(xs[2], 10)
		wants := [][]float64{vec.New(n), vec.New(n), vec.New(n)}
		gots := [][]float64{vec.New(n), vec.New(n), vec.New(n)}
		ref.MulVecs(wants, xs)
		a.MulVecsPool(pool, gots, xs)
		pool.Close()
		if !bitsEqual(got1, want1) {
			t.Fatalf("%s: MulVecPool(workers=%d) differs from the arrays'", name, w)
		}
		for c := range xs {
			if !bitsEqual(gots[c], wants[c]) {
				t.Fatalf("%s: MulVecsPool(workers=%d) column %d differs from the arrays'", name, w, c)
			}
		}
		a.MulVecs(gots, xs)
		for c := range xs {
			if !bitsEqual(gots[c], wants[c]) {
				t.Fatalf("%s: MulVecs column %d differs from the arrays'", name, c)
			}
		}
	}
}

// checkRowsLikeArrays holds a's row reads to ref's, bit for bit.
func checkRowsLikeArrays(t *testing.T, name string, a, ref *CSR) {
	t.Helper()
	n := a.Dim()
	type entry struct {
		j int
		v uint64
	}
	var got, want []entry
	for i := 0; i < n; i++ {
		got, want = got[:0], want[:0]
		a.ScanRow(i, func(j int, v float64) { got = append(got, entry{j, math.Float64bits(v)}) })
		ref.ScanRow(i, func(j int, v float64) { want = append(want, entry{j, math.Float64bits(v)}) })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ScanRow(%d) = %v, arrays %v", name, i, got, want)
		}
		for _, j := range []int{-1, i - 1, i, i + 1, n} {
			if g, w := a.At(i, j), ref.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: At(%d, %d) = %v, arrays %v", name, i, j, g, w)
			}
		}
		for _, e := range want {
			if g := a.At(i, e.j); math.Float64bits(g) != e.v {
				t.Fatalf("%s: At(%d, %d) = %v, arrays %v", name, i, e.j, g, math.Float64frombits(e.v))
			}
		}
	}
	gd, wd := vec.New(n), vec.New(n)
	a.Diag(gd)
	ref.Diag(wd)
	if !bitsEqual(gd, wd) {
		t.Fatalf("%s: Diag differs from the arrays'", name)
	}
	for _, tol := range []float64{0, 1e-12} {
		if a.IsSymmetric(tol) != ref.IsSymmetric(tol) {
			t.Fatalf("%s: IsSymmetric(%v) = %v, arrays %v", name, tol, a.IsSymmetric(tol), ref.IsSymmetric(tol))
		}
	}
	if a.IsDiagonallyDominant() != ref.IsDiagonallyDominant() {
		t.Fatalf("%s: IsDiagonallyDominant differs from the arrays'", name)
	}
	if n <= 400 {
		if g, w := a.ToDense(), ref.ToDense(); !bitsEqual(g.data, w.data) {
			t.Fatalf("%s: ToDense differs from the arrays'", name)
		}
	}
	for parts := 1; parts <= 5; parts++ {
		a.part.Store(nil) // counted afresh, from the arrays rebuilt when released
		if g, w := a.RowPartition(parts), ref.RowPartition(parts); !slices.Equal(g, w) {
			t.Fatalf("%s: RowPartition(%d) = %v, arrays %v", name, parts, g, w)
		}
	}

}

// TestReleasedCSRReadsLikeArrays: once tuning releases a CSR's arrays,
// every count and product returns what the arrays return, bit for bit,
// and leaves them released; the row reads rebuild them exactly, pin
// them, and return the arrays' bits too.
func TestReleasedCSRReadsLikeArrays(t *testing.T) {
	for name, build := range releaseCases(t) {
		a, ref := build(), build()
		if _, ok := TuneMulVec(a).(*DIA); !ok {
			t.Fatalf("%s: not tuned to a band", name)
		}
		if a.arrays.Load() != nil {
			t.Fatalf("%s: a band that reproduces the CSR left the arrays held", name)
		}
		checkProductsLikeArrays(t, name, a, ref)
		if a.arrays.Load() != nil {
			t.Fatalf("%s: a product or a count brought the arrays back", name)
		}
		checkRowsLikeArrays(t, name, a, ref)
		if got := a.arrays.Load(); got == nil || !got.pinned {
			t.Fatalf("%s: the row reads did not pin the arrays", name)
		}
		if diff := csrDiff(a, ref); diff != "" {
			t.Fatalf("%s: re-materialised arrays: %s", name, diff)
		}
		checkReadsLikeArrays(t, name+" pinned", a, ref)
	}
}

// TestStoredZeroIsNeverReleased: a band cannot tell a stored ±0 from a
// hole, so a CSR holding one keeps its arrays.
func TestStoredZeroIsNeverReleased(t *testing.T) {
	for _, z := range []float64{0, math.Copysign(0, -1)} {
		build := func() *CSR {
			return NewCSR(3, []int{0, 2, 5, 7}, []int{0, 1, 0, 1, 2, 1, 2}, []float64{2, -1, -1, 2, z, z, 2})
		}
		a, ref := build(), build()
		if _, ok := TuneMulVec(a).(*DIA); !ok {
			t.Fatal("not tuned to a band")
		}
		if a.arrays.Load() == nil {
			t.Fatalf("a CSR storing %v was released", z)
		}
		checkReadsLikeArrays(t, fmt.Sprint(z), a, ref)
	}
	if tuneAndRelease(bandedCSR(3, 200, 5, 1)) {
		t.Fatal("a band with explicit zeros was released")
	}
}

// TestDIAToCSRKeepsNegativeZero: ToCSR emits every cell whose bits are
// not +0, so a stored −0 survives the round trip and the counts agree.
func TestDIAToCSRKeepsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a := NewCSR(4, []int{0, 2, 5, 8, 10}, []int{0, 1, 0, 1, 2, 1, 2, 3, 2, 3},
		[]float64{2, -1, -1, 2, negZero, negZero, 2, -1, -1, 2})
	d := a.toDIA(1)
	back := d.ToCSR()
	if back.NNZ() != d.NNZ() || d.NNZ() != a.NNZ() {
		t.Fatalf("NNZ: round trip %d, DIA %d, CSR %d", back.NNZ(), d.NNZ(), a.NNZ())
	}
	if diff := csrDiff(back, a); diff != "" {
		t.Fatalf("round trip: %s", diff)
	}
	diags := map[int][]float64{0: {1, 2, 3, 4}, 1: {negZero, 0, 5, 0}}
	h := NewDIA(4, diags)
	if h.NNZ() != 6 || h.ToCSR().NNZ() != 6 {
		t.Fatalf("NewDIA with a −0: NNZ %d, ToCSR's %d, want 6", h.NNZ(), h.ToCSR().NNZ())
	}
	if v := h.ToCSR().At(0, 1); math.Float64bits(v) != math.Float64bits(negZero) {
		t.Fatalf("ToCSR At(0, 1) = %v, want −0", v)
	}
}

// TestPinRules: the row reads on a released CSR — At, ScanRow, Diag,
// IsSymmetric, IsDiagonallyDominant, ToDense, a RowPartition the cache
// does not hold — rebuild and pin the arrays; Values, SetValues, Scale,
// CloneValues (both matrices), MulVecT, ToSELL and EncodeCSR pin them
// whether released or not. A pinned CSR tuned afresh keeps them.
func TestPinRules(t *testing.T) {
	n := Poisson2D(8).Dim()
	reads := map[string]func(a *CSR){
		"At":                   func(a *CSR) { a.At(0, 0) },
		"ScanRow":              func(a *CSR) { a.ScanRow(0, func(int, float64) {}) },
		"Diag":                 func(a *CSR) { a.Diag(vec.New(n)) },
		"IsSymmetric":          func(a *CSR) { a.IsSymmetric(0) },
		"IsDiagonallyDominant": func(a *CSR) { a.IsDiagonallyDominant() },
		"ToDense":              func(a *CSR) { a.ToDense() },
		"RowPartition":         func(a *CSR) { a.part.Store(nil); a.RowPartition(3) },
	}
	for name, read := range reads {
		a := Poisson2D(8)
		read(a)
		if got := a.arrays.Load(); got == nil || got.pinned {
			t.Fatalf("%s pinned arrays that were never released", name)
		}
		if !tuneAndRelease(a) {
			t.Fatal("Poisson2D(8) not released")
		}
		read(a)
		if got := a.arrays.Load(); got == nil || !got.pinned {
			t.Fatalf("%s on a released CSR: arrays not pinned", name)
		}
		if diff := csrDiff(a, Poisson2D(8)); diff != "" {
			t.Fatalf("%s rebuilt arrays: %s", name, diff)
		}
	}
	for name, pin := range map[string]func(a *CSR){
		"Values":      func(a *CSR) { a.Values() },
		"SetValues":   func(a *CSR) { a.SetValues(append([]float64(nil), a.Values()...)) },
		"Scale":       func(a *CSR) { a.Scale(1) },
		"CloneValues": func(a *CSR) { a.CloneValues() },
		"MulVecT":     func(a *CSR) { a.MulVecT(vec.New(n), vec.New(n)) },
		"ToSELL":      func(a *CSR) { a.ToSELL() },
		"EncodeCSR":   func(a *CSR) { EncodeCSR(a) },
	} {
		for _, released := range []bool{false, true} {
			a := Poisson2D(8)
			if released && !tuneAndRelease(a) {
				t.Fatal("Poisson2D(8) not released")
			}
			pin(a)
			if got := a.arrays.Load(); got == nil || !got.pinned {
				t.Fatalf("%s (released %v): arrays not pinned", name, released)
			}
			a.Scale(1) // drops the tuned band
			if tuneAndRelease(a) {
				t.Fatalf("%s (released %v): a pinned CSR was released", name, released)
			}
			checkReadsLikeArrays(t, name, a, Poisson2D(8))
		}
	}
	c := Poisson2D(8)
	tuneAndRelease(c)
	clone := c.CloneValues()
	if tuneAndRelease(clone) {
		t.Fatal("the clone CloneValues returns was released")
	}
}

// withoutZeros returns a copy of a with every stored value that compares
// equal to zero set to 0.5: the same structure, and a band that
// reproduces it.
func withoutZeros(a *CSR) *CSR {
	arr := a.arrays.Load()
	vals := slices.Clone(arr.vals)
	for p, v := range vals {
		if v == 0 {
			vals[p] = 0.5
		}
	}
	return newCSR(a.n, arr.rowPtr, arr.colIdx, vals)
}

// checkReleaseRoundTrip publishes a's band as tune does, whatever its
// padding, and holds the result to the release rule — released exactly
// when no stored value compares equal to zero — and to a copy that
// keeps its arrays.
func checkReleaseRoundTrip(t *testing.T, a *CSR) {
	t.Helper()
	arr := a.arrays.Load()
	ref := newCSR(a.n, arr.rowPtr, arr.colIdx, arr.vals)
	a.publish(arr, &tunedOp{op: arr.toDIA(1)})
	if want := !slices.Contains(arr.vals, 0); (a.arrays.Load() == nil) != want {
		t.Fatalf("released %v, want %v", a.arrays.Load() == nil, want)
	}
	checkReadsLikeArrays(t, "round trip", a, ref)
	a.Values()
	if diff := csrDiff(a, ref); diff != "" {
		t.Fatalf("re-materialised arrays: %s", diff)
	}
}
