package sparse

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"vrcg/internal/vec"
)

// bandedCSR builds a deterministic pseudo-random matrix of order n
// whose entries all lie on ndiag distinct diagonals drawn from the full
// range (-n, n) — so a band may be wider than the matrix — with about
// holes/8 of the in-range cells left out and about one stored entry in
// eight an explicit zero (NewCSR keeps those; COO.ToCSR would drop them).
func bandedCSR(seed uint64, n, ndiag, holes int) *CSR {
	rng := seed | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	picked := map[int]bool{0: true}
	for tries := 0; len(picked) < min(ndiag, 2*n-1) && tries < 64*ndiag; tries++ {
		picked[int(next()%uint64(2*n-1))-(n-1)] = true
	}
	offs := make([]int, 0, len(picked))
	for k := range picked {
		offs = append(offs, k)
	}
	sort.Ints(offs)

	rowPtr := make([]int, n+1)
	var colIdx []int
	var vals []float64
	for i := 0; i < n; i++ {
		for _, k := range offs {
			j := i + k
			if j < 0 || j >= n || int(next()%8) < holes {
				continue
			}
			v := float64(int64(next()))/float64(1<<40) - 0.5
			if next()%8 == 0 {
				v = 0
			}
			colIdx = append(colIdx, j)
			vals = append(vals, v)
		}
		rowPtr[i+1] = len(vals)
	}
	return NewCSR(n, rowPtr, colIdx, vals)
}

// bitsEqual is vec.Equal without its blind spot: -0 == +0 there, and
// the DIA contract is that a hole never turns a +0 sum into -0.
func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// wantStoredDiagonals is the fold rule read off the matrix itself: the
// diagonals k >= 0 when every subdiagonal −k has a +k among offs and
// A[i, i−k] and A[i−k, i] are the same bits in every row (CSR.At gives a
// hole as +0 and an explicit zero as stored), else all of them.
func wantStoredDiagonals(a *CSR, offs []int) int {
	up := len(offs) - sort.SearchInts(offs, 0)
	for _, k := range offs {
		if k >= 0 {
			break
		}
		if u := sort.SearchInts(offs, -k); u == len(offs) || offs[u] != -k {
			return len(offs)
		}
		for i := -k; i < a.Dim(); i++ {
			if math.Float64bits(a.At(i, i+k)) != math.Float64bits(a.At(i+k, i)) {
				return len(offs)
			}
		}
	}
	return up
}

// checkDIAAgainstCSR is the contract a converted DIA carries: the
// source's counts; the band folded exactly when the fold rule says so;
// At on every cell; MulVec, MulVecPool at 1–4 workers and any split of
// the rows bit for bit equal to CSR.MulVec; and a ToCSR round trip that
// loses only the explicit zeros.
func checkDIAAgainstCSR(t *testing.T, a *CSR, d *DIA, seed uint64) {
	t.Helper()
	n := a.Dim()
	if got, want := d.StoredDiagonals(), wantStoredDiagonals(a, d.Offsets()); got != want {
		t.Fatalf("offsets %v: %d diagonals stored, the fold rule says %d", d.Offsets(), got, want)
	}
	if d.Dim() != n || d.NNZ() != a.NNZ() || d.MaxRowNonzeros() != a.MaxRowNonzeros() {
		t.Fatalf("counts: dim %d/%d nnz %d/%d maxrow %d/%d",
			d.Dim(), n, d.NNZ(), a.NNZ(), d.MaxRowNonzeros(), a.MaxRowNonzeros())
	}
	if offs := d.Offsets(); !sort.IntsAreSorted(offs) || len(offs) > diaMaxDiags {
		t.Fatalf("offsets %v not ascending or past the cap", offs)
	}
	back := d.ToCSR()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d.At(i, j) != a.At(i, j) || back.At(i, j) != a.At(i, j) {
				t.Fatalf("At(%d,%d): DIA %v, round trip %v, CSR %v", i, j, d.At(i, j), back.At(i, j), a.At(i, j))
			}
		}
	}

	x := vec.New(n)
	vec.Random(x, seed+3)
	want, got := vec.New(n), vec.New(n)
	a.MulVec(want, x)
	fresh := func() {
		vec.Fill(got, math.NaN())
	}
	fresh()
	d.MulVec(got, x)
	if !bitsEqual(want, got) {
		t.Fatal("DIA.MulVec differs from CSR.MulVec bitwise")
	}
	for w := 1; w <= 4; w++ {
		pool := vec.NewPoolMinChunk(w, 1)
		fresh()
		d.MulVecPool(pool, got, x)
		pool.Close()
		if !bitsEqual(want, got) {
			t.Fatalf("DIA.MulVecPool(workers=%d) differs from CSR.MulVec bitwise", w)
		}
	}
	// Arbitrary [rlo, rhi) splits, empty ranges included.
	rng := seed*2654435761 + 1
	fresh()
	viaGo := vec.New(n)
	vec.Fill(viaGo, math.NaN())
	for lo := 0; lo < n; {
		rng = rng*6364136223846793005 + 1442695040888963407
		hi := min(n, lo+int(rng>>33)%(n/3+2))
		d.mulRange(lo, hi, got, x)
		d.cutRows(lo, hi, viaGo, x, (*DIA).mulRowsGo)
		lo = hi
	}
	if !bitsEqual(want, got) {
		t.Fatal("DIA.mulRange over an arbitrary row split differs from CSR.MulVec bitwise")
	}
	// The row kernel mulRange dispatches to (assembly where it runs)
	// against the Go kernels dia1..dia5 on the same split.
	if !bitsEqual(viaGo, got) {
		t.Fatalf("DIA.mulRange on the %s row kernel differs from the Go kernels bitwise", vec.Kernels())
	}
}

// TestDIARowKernelsBitwise compares the row kernel mulRows dispatches
// to — one assembly pass over any number of diagonals, where the
// assembly bodies run — against mulRowsGo's dia1..dia5 passes directly:
// 1-16 diagonals, row counts from none to four sixteen-row trips plus
// every tail, out starting at every alignment and fenced by sentinels,
// values that make ±0, subnormal and overflowing products.
func TestDIARowKernelsBitwise(t *testing.T) {
	const n, band, guard = 256, 40, 24
	edge := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -1e-310, 1.5e154, -1.5e154, 1e308}
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	for ndiag := 1; ndiag <= diaMaxDiags; ndiag++ {
		// ndiag distinct offsets inside ±band, so rows [band, n-band)
		// hold every diagonal.
		diags := map[int][]float64{}
		rng := uint64(ndiag)*0x9e3779b97f4a7c15 | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		mixed := func(v []float64) {
			vec.Random(v, next())
			for i := range v {
				if r := next(); r%8 == 0 {
					v[i] = edge[(r>>3)%uint64(len(edge))]
				}
			}
		}
		for len(diags) < ndiag {
			k := int(next()%(2*band+1)) - band
			if diags[k] == nil {
				diags[k] = make([]float64, n)
				mixed(diags[k])
			}
		}
		d := NewDIA(n, diags)
		x := vec.New(n)
		mixed(x)
		for rows := 0; rows <= 4*16+15; rows++ {
			for align := 0; align < 4; align++ {
				lo := band + align
				hi := lo + rows
				var bufs [2][]float64
				for side, kernel := range []diaRowKernel{(*DIA).mulRowsGo, (*DIA).mulRows} {
					bufs[side] = make([]float64, guard+align+rows+guard)
					vec.Fill(bufs[side], sentinel)
					kernel(d, lo, hi, 0, ndiag, bufs[side][guard+align:guard+align+rows], x)
				}
				for i := range bufs[0] {
					w, g := bufs[0][i], bufs[1][i]
					inside := i >= guard+align && i < guard+align+rows
					if math.Float64bits(w) != math.Float64bits(g) && !(inside && math.IsNaN(w) && math.IsNaN(g)) {
						t.Fatalf("ndiag=%d rows=%d align=%d: out[%d] = %x (%g) on the %s kernel, %x (%g) on the Go kernels",
							ndiag, rows, align, i-guard-align, math.Float64bits(g), g, vec.Kernels(), math.Float64bits(w), w)
					}
				}
			}
		}
	}
}

// TestDIAFromCSRBitwise sweeps the shapes the conversion must get right:
// every diagonal count the kernels split differently (1..16), orders
// from 1 up past one row block, bands wider than the matrix, holes and
// explicit zeros.
func TestDIAFromCSRBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 257} {
		for ndiag := 1; ndiag <= diaMaxDiags; ndiag++ {
			for holes := 0; holes <= 2; holes++ {
				seed := uint64(n*1000 + ndiag*10 + holes)
				a := bandedCSR(seed, n, ndiag, holes)
				if a.NNZ() == 0 {
					continue
				}
				d := a.toDIA(1)
				if d == nil {
					t.Fatalf("n=%d ndiag=%d holes=%d: banded matrix not converted", n, ndiag, holes)
				}
				checkDIAAgainstCSR(t, a, d, seed)
			}
		}
	}
	// One order past a row block, so blocks, the band's edge cuts and
	// pool chunks all interleave.
	for _, a := range []*CSR{Poisson2D(50), Poisson3D(14), Poisson1D(2*diaBlock + 5)} {
		d, ok := TuneMulVec(a).(*DIA)
		if !ok {
			t.Fatalf("n=%d stencil not tuned to DIA", a.Dim())
		}
		x := vec.New(a.Dim())
		vec.Random(x, 77)
		want, got := vec.New(a.Dim()), vec.New(a.Dim())
		a.MulVec(want, x)
		for w := 1; w <= 4; w++ {
			pool := vec.NewPoolMinChunk(w, 1)
			d.MulVecPool(pool, got, x)
			pool.Close()
			if !bitsEqual(want, got) {
				t.Fatalf("n=%d workers=%d: tuned DIA differs from CSR bitwise", a.Dim(), w)
			}
		}
	}
}

// TestToDIARejects: what is not banded is never built.
func TestToDIARejects(t *testing.T) {
	if d := bandedCSR(5, 200, diaMaxDiags+1, 0).toDIA(1); d != nil {
		t.Fatalf("converted a matrix with %d diagonals, cap %d", len(d.offsets), diaMaxDiags)
	}
	// Two stored entries in one cell are two terms of CSR's sum; a slab
	// cell holds one.
	dup := NewCSR(2, []int{0, 2, 3}, []int{0, 0, 1}, []float64{1, 2, 3})
	if dup.toDIA(1) != nil {
		t.Fatal("converted a matrix with a duplicate entry")
	}
	// A band that is mostly holes: 5 of every 8 cells missing.
	sparseBand := bandedCSR(9, 300, 6, 5)
	if sparseBand.toDIA(sellMaxPadding) != nil {
		t.Fatal("converted a band past the padding limit")
	}
	if sparseBand.toDIA(1) == nil {
		t.Fatal("padding limit of 1 still rejected the band")
	}
	if NewCSR(3, []int{0, 0, 0, 0}, nil, nil).toDIA(1) != nil {
		t.Fatal("converted an empty matrix")
	}
}

// TestDIACountsAreFields: NNZ and MaxRowNonzeros of a hand-built DIA
// keep their meaning (structurally valid non-zero values) now that they
// are computed once.
func TestDIACountsAreFields(t *testing.T) {
	n := 6
	main := []float64{4, 4, 0, 4, 4, 4}    // one zero on the diagonal
	up2 := []float64{1, 1, 1, 1, 9, 9}     // last two fall outside the matrix
	down5 := []float64{7, 7, 7, 7, 7, 0.5} // only row 5 is inside
	d := NewDIA(n, map[int][]float64{0: main, 2: up2, -5: down5})
	if got := d.NNZ(); got != 5+4+1 {
		t.Fatalf("NNZ = %d, want 10", got)
	}
	if got := d.MaxRowNonzeros(); got != 2 {
		t.Fatalf("MaxRowNonzeros = %d, want 2", got)
	}
	if c := d.ToCSR(); c.NNZ() != d.NNZ() || c.MaxRowNonzeros() != d.MaxRowNonzeros() {
		t.Fatalf("ToCSR counts %d/%d, DIA %d/%d", c.NNZ(), c.MaxRowNonzeros(), d.NNZ(), d.MaxRowNonzeros())
	}
	// With the superdiagonal alone, rows 4 and 5 hold nothing: the
	// product must still write them.
	for _, m := range []*DIA{d, NewDIA(n, map[int][]float64{2: up2})} {
		x := []float64{1, 2, 3, 4, 5, 6}
		got, want := make([]float64, n), make([]float64, n)
		vec.Fill(got, math.NaN())
		m.MulVec(got, x)
		m.ToCSR().MulVec(want, x)
		if !bitsEqual(want, got) {
			t.Fatalf("offsets %v: MulVec = %v, want %v", m.Offsets(), got, want)
		}
	}
}

// TestTuneMulVecInvalidation: SetValues and Scale drop the cached DIA
// exactly as they drop a cached SELL, so a tuned product never runs on
// stale values.
func TestTuneMulVecInvalidation(t *testing.T) {
	a := Poisson2D(12)
	n := a.Dim()
	x, want, got := vec.New(n), vec.New(n), vec.New(n)
	vec.Random(x, 13)
	first := TuneMulVec(a)
	if _, ok := first.(*DIA); !ok {
		t.Fatalf("TuneMulVec(poisson2d 144) = %T, want *DIA", first)
	}

	vals := append([]float64(nil), a.Values()...)
	for i := range vals {
		vals[i] *= 1 + float64(i%5)
	}
	a.SetValues(vals)
	second := TuneMulVec(a)
	if second == first {
		t.Fatal("SetValues kept the cached DIA")
	}
	a.MulVec(want, x)
	second.MulVec(got, x)
	if !bitsEqual(want, got) {
		t.Fatal("tuned product after SetValues differs from the CSR's")
	}

	a.Scale(-0.75)
	third := TuneMulVec(a)
	if third == second {
		t.Fatal("Scale kept the cached DIA")
	}
	a.MulVec(want, x)
	third.MulVec(got, x)
	if !bitsEqual(want, got) {
		t.Fatal("tuned product after Scale differs from the CSR's")
	}
}

// mirrorLower returns a with its upper triangle replaced by the mirror
// of its lower one, holes and explicit zeros included: the same band
// made symmetric bit for bit.
func mirrorLower(a *CSR) *CSR {
	var cells []cell
	for _, c := range cellsOf(a) {
		if c.j <= c.i {
			cells = append(cells, c)
		}
		if c.j < c.i {
			cells = append(cells, cell{c.j, c.i, c.v})
		}
	}
	return cellsCSR(a.Dim(), cells)
}

// nudgeOneSuperdiagonalCell moves the first stored entry above the
// diagonal by one ulp, in place, and reports whether there was one.
func nudgeOneSuperdiagonalCell(a *CSR) bool {
	for i := 0; i < a.n; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			if int(a.colIdx[p]) > i {
				a.vals[p] = math.Nextafter(a.vals[p], 2)
				return true
			}
		}
	}
	return false
}

// FuzzCSRToDIA drives the CSR→DIA conversion with fuzzed banded shapes
// (see bandedCSR) and holds it to checkDIAAgainstCSR. Bit 0 of sym
// mirrors the lower band onto the upper one, so the band folds; bit 1
// then moves one superdiagonal cell by an ulp, so it must not. Bit 2
// draws the band from the periodic family instead (see periodicCSR),
// of order up to 20000, so its diagonals become runs, and holds it to
// checkBandAgainstCSR.
func FuzzCSRToDIA(f *testing.F) {
	f.Add(uint64(1), uint(8), uint(0), uint(0), uint(0))
	f.Add(uint64(42), uint(100), uint(4), uint(1), uint(0))
	f.Add(uint64(7), uint(257), uint(15), uint(3), uint(0))
	f.Add(uint64(99), uint(0), uint(6), uint(2), uint(0))
	f.Add(uint64(171), uint(1), uint(109), uint(163), uint(0)) // rows that hold no diagonal at all
	f.Add(uint64(42), uint(100), uint(4), uint(1), uint(1))
	f.Add(uint64(42), uint(100), uint(4), uint(1), uint(3))
	f.Add(uint64(7), uint(257), uint(7), uint(3), uint(1))
	f.Add(uint64(5), uint(2), uint(3), uint(0), uint(3))
	f.Add(uint64(3), uint(9000), uint(6), uint(1), uint(4))
	f.Add(uint64(8), uint(19999), uint(15), uint(2), uint(4))
	f.Add(uint64(11), uint(12000), uint(8), uint(3), uint(5))
	f.Add(uint64(12), uint(16000), uint(9), uint(0), uint(7))
	f.Fuzz(func(t *testing.T, seed uint64, un, udiag, uholes, sym uint) {
		periodic := sym&4 != 0
		n := int(un%300) + 1
		if periodic {
			n = int(un%20000) + 1
		}
		ndiag := int(udiag%diaMaxDiags) + 1
		if sym&1 != 0 {
			ndiag = (ndiag + 1) / 2 // mirrored, at most 2·ndiag − 1 ≤ diaMaxDiags
		}
		a := bandedCSR(seed, n, ndiag, int(uholes%4))
		if periodic {
			a = periodicCSR(seed, n, ndiag, int(uholes%4))
		}
		folds, broken := sym&1 != 0, false
		if folds {
			a = mirrorLower(a)
			if sym&2 != 0 {
				broken = nudgeOneSuperdiagonalCell(a)
			}
		}
		if a.NNZ() == 0 {
			return
		}
		d := a.toDIA(1)
		if d == nil {
			t.Fatal("banded matrix not converted")
		}
		want := len(d.offsets) - sort.SearchInts(d.offsets, 0)
		if broken {
			want = len(d.offsets)
		}
		if folds && d.StoredDiagonals() != want {
			t.Fatalf("mirrored band over %v (one cell moved: %v) stores %d diagonals", d.offsets, broken, d.StoredDiagonals())
		}
		if periodic {
			checkBandAgainstCSR(t, fmt.Sprintf("band over %v", d.offsets), a, d, seed)
			return
		}
		if diff := diaDiff(d, a.toDIARef(1)); diff != "" {
			t.Fatalf("band over %v: %s from the reference fill", d.offsets, diff)
		}
		checkDIAAgainstCSR(t, a, d, seed)
	})
}

// rowSweeper is the capability the engine looks for (engine.RowSweeper),
// restated here so the test does not import the engine.
type rowSweeper interface {
	Matrix
	MulRows(lo, hi int, dst, x []float64)
	Reach() int
}

// checkRowSweeper: the product taken in ranges of every awkward width is
// MulVec's bit for bit and writes only its own rows, and Reach is true —
// a range's rows do not change when everything at or past hi+Reach is
// replaced by NaN — and tight: some row reads the element just before it.
func checkRowSweeper(t *testing.T, name string, a rowSweeper, seed uint64) {
	t.Helper()
	n, reach := a.Dim(), a.Reach()
	x, want := make([]float64, n), make([]float64, n)
	vec.Random(x, seed)
	a.MulVec(want, x)
	for _, step := range []int{1, 7, 1024, 2049, n} {
		got := make([]float64, n)
		for lo := 0; lo < n; lo += step {
			hi := min(n, lo+step)
			for i := range got[hi:] {
				got[hi+i] = math.Inf(1) // not this call's to write
			}
			a.MulRows(lo, hi, got, x)
			if hi < n && !math.IsInf(got[hi], 1) {
				t.Fatalf("%s: MulRows(%d, %d) wrote row %d", name, lo, hi, hi)
			}
		}
		if !bitsEqual(got, want) {
			t.Fatalf("%s: rows taken %d at a time differ from MulVec", name, step)
		}
	}
	if reach < 0 || reach >= max(n, 2) {
		t.Fatalf("%s: reach %d for order %d", name, reach, n)
	}
	tight := reach == 0
	for _, hi := range []int{1, n / 3, n / 2, n - reach, n - reach + 1} {
		if hi < 1 || hi > n {
			continue
		}
		lo := max(0, hi-5)
		blind := append([]float64(nil), x...)
		for i := hi + reach; i < n; i++ {
			blind[i] = math.NaN()
		}
		got := make([]float64, n)
		a.MulRows(lo, hi, got, blind)
		if !bitsEqual(got[lo:hi], want[lo:hi]) {
			t.Fatalf("%s: rows [%d, %d) read x at or past %d; Reach says %d", name, lo, hi, hi+reach, reach)
		}
		if reach > 0 && hi+reach-1 < n {
			blind[hi+reach-1] = math.NaN()
			a.MulRows(lo, hi, got, blind)
			tight = tight || !bitsEqual(got[lo:hi], want[lo:hi])
		}
	}
	if !tight {
		t.Errorf("%s: no row reads x %d past itself; Reach is loose", name, reach)
	}
}

func TestRowSweepers(t *testing.T) {
	for i, c := range []struct {
		name string
		a    *CSR
	}{
		{"poisson1d-100", Poisson1D(100)},
		{"poisson2d-17", Poisson2D(17)},
		{"poisson3d-12", Poisson3D(12)},
		{"banded-3000x5", bandedCSR(11, 3000, 5, 1)},
		{"banded-70x16", bandedCSR(12, 70, 16, 2)},
	} {
		d := c.a.toDIA(1)
		if d == nil {
			t.Fatalf("%s does not convert to diagonal storage", c.name)
		}
		checkRowSweeper(t, "dia/"+c.name, d, uint64(i)+1)
	}
	lower := NewDIA(40, map[int][]float64{-3: make([]float64, 40), 0: make([]float64, 40)})
	if lower.Reach() != 0 {
		t.Errorf("a lower-triangular DIA has reach %d", lower.Reach())
	}
	// Every grid kind's band, down to a one-point side, where the far
	// corner of the stencil lies outside the grid.
	for _, kind := range allStencilKinds {
		for _, m := range []int{1, 2, 9} {
			d := kind.CSR(m).toDIA(1)
			if d == nil {
				if kind.Degree() <= diaMaxDiags {
					t.Fatalf("%v m=%d does not convert to diagonal storage", kind, m)
				}
				continue // more diagonals than the format takes
			}
			checkRowSweeper(t, fmt.Sprintf("dia/%v m=%d", kind, m), d, uint64(m))
		}
	}
	if _, ok := Matrix(Poisson2D(4)).(rowSweeper); ok {
		t.Error("*CSR offers MulRows: a wrapper that embeds one would promote it past its own MulVec")
	}
}
