package sparse

import (
	"math"
	"sort"
	"testing"

	"vrcg/internal/vec"
)

// cell is one stored entry of a matrix under test.
type cell struct {
	i, j int
	v    float64
}

func cellsOf(m *CSR) []cell {
	var cells []cell
	a := m.arrays.Load()
	for i := 0; i < m.n; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			cells = append(cells, cell{i, int(a.colIdx[p]), a.vals[p]})
		}
	}
	return cells
}

// cellsCSR stores exactly the given cells, explicit zeros included
// (COO.ToCSR would drop them).
func cellsCSR(n int, cells []cell) *CSR {
	sort.Slice(cells, func(x, y int) bool {
		if cells[x].i != cells[y].i {
			return cells[x].i < cells[y].i
		}
		return cells[x].j < cells[y].j
	})
	rowPtr := make([]int, n+1)
	colIdx := make([]int, len(cells))
	vals := make([]float64, len(cells))
	for p, c := range cells {
		rowPtr[c.i+1]++
		colIdx[p], vals[p] = c.j, c.v
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return NewCSR(n, rowPtr, colIdx, vals)
}

// diagonalsOf is a in NewDIA's input form, which has no cap on the
// number of diagonals.
func diagonalsOf(a *CSR) map[int][]float64 {
	diags := map[int][]float64{}
	for _, c := range cellsOf(a) {
		if diags[c.j-c.i] == nil {
			diags[c.j-c.i] = make([]float64, a.n)
		}
		diags[c.j-c.i][c.i] = c.v
	}
	return diags
}

// unfoldedTwin builds the band a second time with one subdiagonal cell
// an ulp off, so nothing folds, and puts the value back into the slab:
// the matrix build() gives, every diagonal stored.
func unfoldedTwin(t *testing.T, m *CSR, build func() *DIA) *DIA {
	t.Helper()
	a := m.arrays.Load()
	for i := 0; i < m.n; i++ {
		p := a.rowPtr[i]
		if p == a.rowPtr[i+1] || int(a.colIdx[p]) >= i {
			continue
		}
		v := a.vals[p]
		a.vals[p] = math.Nextafter(v, 2)
		u := build()
		a.vals[p] = v
		if u.StoredDiagonals() != len(u.offsets) {
			t.Fatalf("band with A[%d,%d] moved an ulp stores %d of %d diagonals", i, a.colIdx[p], u.StoredDiagonals(), len(u.offsets))
		}
		u.slab[u.base[sort.SearchInts(u.offsets, int(a.colIdx[p])-i)]+i] = v
		return u
	}
	t.Fatal("no entry below the diagonal")
	return nil
}

// foldMix fills x with one of three value mixes: uniform in [-1, 1);
// one in eight ±0 or a subnormal; one in eight ±0, ±Inf or NaN.
func foldMix(x []float64, seed uint64, mix int) {
	vec.Random(x, seed)
	edge := [][]float64{nil,
		{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -1e-310},
		{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()},
	}[mix]
	for i := range x {
		seed = seed*6364136223846793005 + 1442695040888963407
		if r := seed >> 33; edge != nil && r%8 == 0 {
			x[i] = edge[(r>>3)%uint64(len(edge))]
		}
	}
}

// TestDIAFoldBitwise: a symmetric band stores ⌈(d+1)/2⌉ of its d
// diagonals and is, to every caller, the band that stores them all —
// MulVec, MulRows in any cut, MulVecPool and the Go row kernels return
// the unfolded twin's bits for every x, NaN and ±Inf included, and the
// source CSR's for every finite one.
func TestDIAFoldBitwise(t *testing.T) {
	varcoeff, err := VarCoeffPoisson2D(15, func(x, y float64) float64 { return 1 + x*x + 3*y })
	if err != nil {
		t.Fatal(err)
	}
	grid := Poisson2D(13)
	rcm, err := PermuteSymmetric(grid, RCMOrder(grid))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		a    *CSR
	}{
		{"poisson1d-100", Poisson1D(100)},
		{"poisson2d-17", Poisson2D(17)},
		{"poisson2d-64", Poisson2D(64)},
		{"poisson3d-12", Poisson3D(12)},
		{"rcm-poisson2d-13", rcm}, // more diagonals than TuneMulVec takes: through NewDIA
		{"varcoeff2d-15", varcoeff},
		{"band-holes-2500", mirrorLower(bandedCSR(21, 2500, 6, 2))},
	} {
		a, n := c.a, c.a.Dim()
		build := func() *DIA { return a.toDIA(1) }
		if build() == nil {
			build = func() *DIA { return NewDIA(n, diagonalsOf(a)) }
		}
		folded := build()
		full := unfoldedTwin(t, a, build)
		d := len(folded.offsets)
		if got, want := len(folded.slab), (d+2)/2*n; got != want || folded.StoredDiagonals() != (d+2)/2 {
			t.Fatalf("%s: %d diagonals folded into a slab of %d values, want %d", c.name, d, got, want)
		}
		if len(full.slab) != d*n {
			t.Fatalf("%s: unfolded slab of %d values, want %d", c.name, len(full.slab), d*n)
		}
		x, want, got := vec.New(n), vec.New(n), vec.New(n)
		for mix := 0; mix < 3; mix++ {
			foldMix(x, uint64(n+mix), mix)
			full.MulVec(want, x)
			if mix < 2 { // finite x: the CSR contract
				a.MulVec(got, x)
				if !bitsEqual(got, want) {
					t.Fatalf("%s mix %d: unfolded DIA differs from its CSR", c.name, mix)
				}
			}
			vec.Fill(got, 1)
			folded.MulVec(got, x)
			if !bitsEqual(got, want) {
				t.Fatalf("%s mix %d: folded MulVec differs from the unfolded band's", c.name, mix)
			}
			for _, step := range []int{1, 7, 1024, 2049, n} {
				vec.Fill(got, 1)
				for lo := 0; lo < n; lo += step {
					folded.MulRows(lo, min(n, lo+step), got, x, nil, 0, 0)
				}
				if !bitsEqual(got, want) {
					t.Fatalf("%s mix %d: folded MulRows %d rows at a time differs from the unfolded band's", c.name, mix, step)
				}
			}
			for _, w := range []int{2, 3} {
				pool := vec.NewPoolMinChunk(w, 1)
				vec.Fill(got, 1)
				folded.MulVecPool(pool, got, x)
				pool.Close()
				if !bitsEqual(got, want) {
					t.Fatalf("%s mix %d: folded MulVecPool(%d) differs from the unfolded band's", c.name, mix, w)
				}
			}
			// The Go row kernels, whichever ones MulVec ran: folded
			// against unfolded to the bit.
			goWant := vec.New(n)
			full.cutRows(0, n, goWant, x, carry{}, (*DIA).mulRowsGo)
			vec.Fill(got, 1)
			folded.cutRows(0, n, got, x, carry{}, (*DIA).mulRowsGo)
			if !bitsEqual(got, goWant) {
				t.Fatalf("%s mix %d: folded Go kernels differ from the unfolded band's", c.name, mix)
			}
		}
	}
}

// TestDIAFoldRefuses: only a band whose subdiagonals repeat stored
// superdiagonals bit for bit folds. Each edit of Poisson2D(4) — five
// diagonals, holes on ±1 where a grid row ends (A[4,3], A[3,4]) — either
// still folds to three or keeps all of its diagonals, and matches its
// CSR bitwise both ways.
func TestDIAFoldRefuses(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := func(payload uint64) float64 { return math.Float64frombits(0x7ff8_0000_0000_0000 | payload) }
	for _, c := range []struct {
		name   string
		edits  []cell // set or added, in order
		stored int
	}{
		{"untouched", nil, 3},
		{"one ulp below the diagonal", []cell{{1, 0, math.Nextafter(-1, 0)}}, 5},
		{"one ulp above the diagonal", []cell{{0, 4, math.Nextafter(-1, 0)}}, 5},
		{"-0 against an explicit +0", []cell{{4, 3, negZero}, {3, 4, 0}}, 5},
		{"explicit +0 on both sides", []cell{{4, 3, 0}, {3, 4, 0}}, 3},
		{"-0 on both sides", []cell{{4, 3, negZero}, {3, 4, negZero}}, 3},
		{"NaN payloads differ", []cell{{1, 0, nan(1)}, {0, 1, nan(2)}}, 5},
		{"NaN payloads agree", []cell{{1, 0, nan(1)}, {0, 1, nan(1)}}, 3},
		// A hole is +0: the slab cannot tell an explicit +0 from one, and
		// can tell anything else.
		{"explicit +0 below, hole above", []cell{{4, 3, 0}}, 3},
		{"explicit +0 above, hole below", []cell{{3, 4, 0}}, 3},
		{"explicit -0 below, hole above", []cell{{4, 3, negZero}}, 5},
		{"explicit -0 above, hole below", []cell{{3, 4, negZero}}, 5},
		{"value below, hole above", []cell{{4, 3, 0.5}}, 5},
		{"value above, hole below", []cell{{3, 4, 0.5}}, 5},
		{"subdiagonal with no mirror", []cell{{6, 0, 0.25}}, 6},
		{"superdiagonal with no mirror", []cell{{0, 6, 0.25}}, 4}, // nothing reads it twice
	} {
		cells := cellsOf(Poisson2D(4))
		hasNaN := false
	edits:
		for _, e := range c.edits {
			hasNaN = hasNaN || math.IsNaN(e.v)
			for p := range cells {
				if cells[p].i == e.i && cells[p].j == e.j {
					cells[p].v = e.v
					continue edits
				}
			}
			cells = append(cells, e)
		}
		a := cellsCSR(16, cells)
		d := a.toDIA(1)
		if d == nil {
			t.Fatalf("%s: not converted", c.name)
		}
		if got := d.StoredDiagonals(); got != c.stored || len(d.slab) != c.stored*16 {
			t.Errorf("%s: %d of %d diagonals stored (slab %d), want %d", c.name, got, len(d.offsets), len(d.slab), c.stored)
		}
		if !hasNaN {
			checkDIAAgainstCSR(t, a, d, 3)
			continue
		}
		// NaN != NaN, so At cannot be compared; the product can, a NaN's
		// payload aside (see TestDIARowKernelsBitwise).
		x, want, got := vec.New(16), vec.New(16), vec.New(16)
		vec.Random(x, 5)
		a.MulVec(want, x)
		d.MulVec(got, x)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) && !(math.IsNaN(want[i]) && math.IsNaN(got[i])) {
				t.Errorf("%s: row %d is %v, CSR %v", c.name, i, got[i], want[i])
			}
		}
	}

	// A band nobody made symmetric.
	a := bandedCSR(31, 400, 7, 1)
	d := a.toDIA(1)
	if d.StoredDiagonals() != len(d.offsets) {
		t.Errorf("unsymmetric band over %v stores %d diagonals", d.offsets, d.StoredDiagonals())
	}
	checkDIAAgainstCSR(t, a, d, 31)
}

// TestDIAAtStaysInsideTheMatrix: At answers for the matrix, not the
// slab. NewDIA ignores the cells of a diagonal that lie outside the
// matrix (7 and 9 here), so At does not return them — and they do not
// keep the band from folding, where a subdiagonal's row 0 would
// otherwise be read from before its mirror.
func TestDIAAtStaysInsideTheMatrix(t *testing.T) {
	for _, c := range []struct {
		name          string
		below, stored int
	}{{"folded", -1, 2}, {"unfolded", -3, 3}} {
		d := NewDIA(3, map[int][]float64{0: {2, 2, 2}, 1: {-1, 0, 7}, -1: {9, float64(c.below), 0}})
		if d.StoredDiagonals() != c.stored {
			t.Fatalf("%s: %d diagonals stored, want %d", c.name, d.StoredDiagonals(), c.stored)
		}
		back := d.ToCSR()
		for _, q := range []struct {
			i, j int
			want float64
		}{{1, 1, 2}, {0, 1, -1}, {1, 2, 0}, {1, 0, float64(c.below)}, {2, 1, 0}, {0, 2, 0}, {2, 3, 0}, {0, -1, 0}} {
			if got := d.At(q.i, q.j); got != q.want {
				t.Errorf("%s: At(%d,%d) = %v, want %v", c.name, q.i, q.j, got, q.want)
			}
			if q.j >= 0 && q.j < 3 && back.At(q.i, q.j) != q.want {
				t.Errorf("%s: ToCSR().At(%d,%d) = %v, want %v", c.name, q.i, q.j, back.At(q.i, q.j), q.want)
			}
		}
	}
}

// TestTuneMulVecRefolds: the fold is decided from the values each time
// the tuned operator is rebuilt, so a SetValues that breaks the symmetry
// unfolds the band and one that restores it folds it again.
func TestTuneMulVecRefolds(t *testing.T) {
	a := Poisson2D(12)
	stored := func() int {
		t.Helper()
		d, ok := TuneMulVec(a).(*DIA)
		if !ok {
			t.Fatalf("TuneMulVec = %T, want *DIA", TuneMulVec(a))
		}
		checkDIAAgainstCSR(t, a, d, 9)
		return d.StoredDiagonals()
	}
	if got := stored(); got != 3 {
		t.Fatalf("poisson2d stores %d diagonals, want 3", got)
	}
	vals := append([]float64(nil), a.Values()...)
	vals[a.arrays.Load().rowPtr[1]] *= 2 // A[1,0], not A[0,1]
	a.SetValues(vals)
	if got := stored(); got != 5 {
		t.Fatalf("after breaking one cell: %d diagonals stored, want 5", got)
	}
	a.Scale(-0.75) // still unsymmetric
	if got := stored(); got != 5 {
		t.Fatalf("after Scale: %d diagonals stored, want 5", got)
	}
	vals[a.arrays.Load().rowPtr[1]] /= 2
	a.SetValues(vals)
	if got := stored(); got != 3 {
		t.Fatalf("after restoring it: %d diagonals stored, want 3", got)
	}
}
