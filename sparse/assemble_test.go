package sparse

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"vrcg/internal/vec"
)

// The assembly path before a generator wrote its rows in place, before a
// sorted row was left alone, and before the band was filled in one
// sweep, kept as the oracle the current one is held to bit for bit:
// stencilEntriesRef fed to a COO, cooToCSRRef (sort.Sort on every row)
// and toDIARef (a closure and a put per cell, a refill on a failed fold).

// stencilEntriesRef enumerates a stencil's entries in the order the
// generators once handed them to a COO: row by row, the centre first.
func stencilEntriesRef(kind StencilKind, m int, emit func(i, j int, v float64)) {
	mm := m * m
	switch kind {
	case Stencil1D3:
		for i := 0; i < m; i++ {
			emit(i, i, 2)
			if i > 0 {
				emit(i, i-1, -1)
			}
			if i < m-1 {
				emit(i, i+1, -1)
			}
		}
	case Stencil2D5:
		for j := 0; j < m; j++ {
			for i := 0; i < m; i++ {
				idx := j*m + i
				emit(idx, idx, 4)
				if i > 0 {
					emit(idx, idx-1, -1)
				}
				if i < m-1 {
					emit(idx, idx+1, -1)
				}
				if j > 0 {
					emit(idx, idx-m, -1)
				}
				if j < m-1 {
					emit(idx, idx+m, -1)
				}
			}
		}
	case Stencil2D9:
		for j := 0; j < m; j++ {
			for i := 0; i < m; i++ {
				idx := j*m + i
				emit(idx, idx, 8.0/3.0)
				for dj := -1; dj <= 1; dj++ {
					for di := -1; di <= 1; di++ {
						ii, jj := i+di, j+dj
						if (di == 0 && dj == 0) || ii < 0 || ii >= m || jj < 0 || jj >= m {
							continue
						}
						emit(idx, jj*m+ii, -1.0/3.0)
					}
				}
			}
		}
	case Stencil3D7:
		for k := 0; k < m; k++ {
			for j := 0; j < m; j++ {
				for i := 0; i < m; i++ {
					idx := k*mm + j*m + i
					emit(idx, idx, 6)
					if i > 0 {
						emit(idx, idx-1, -1)
					}
					if i < m-1 {
						emit(idx, idx+1, -1)
					}
					if j > 0 {
						emit(idx, idx-m, -1)
					}
					if j < m-1 {
						emit(idx, idx+m, -1)
					}
					if k > 0 {
						emit(idx, idx-mm, -1)
					}
					if k < m-1 {
						emit(idx, idx+mm, -1)
					}
				}
			}
		}
	case Stencil3D27:
		for k := 0; k < m; k++ {
			for j := 0; j < m; j++ {
				for i := 0; i < m; i++ {
					idx := k*mm + j*m + i
					emit(idx, idx, 2.0)
					for dk := -1; dk <= 1; dk++ {
						for dj := -1; dj <= 1; dj++ {
							for di := -1; di <= 1; di++ {
								ii, jj, kk := i+di, j+dj, k+dk
								if (di == 0 && dj == 0 && dk == 0) || ii < 0 || ii >= m || jj < 0 || jj >= m || kk < 0 || kk >= m {
									continue
								}
								emit(idx, kk*mm+jj*m+ii, -2.0/26.0)
							}
						}
					}
				}
			}
		}
	}
}

// tridiagRef is TridiagToeplitz through a COO.
func tridiagRef(n int, diag, off float64) *CSR {
	coo := NewCOO(n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, diag)
		if i > 0 {
			coo.Add(i, i-1, off)
		}
		if i < n-1 {
			coo.Add(i, i+1, off)
		}
	}
	return cooToCSRRef(coo)
}

// cooToCSRRef is COO.ToCSR with a counting sort by row and sort.Sort on
// every row.
func cooToCSRRef(c *COO) *CSR {
	n, nnz := c.n, len(c.vals)
	ptr := make([]int, n+1)
	for _, i := range c.rows {
		ptr[i+1]++
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	cols, vals, cursor := make([]int32, nnz), make([]float64, nnz), make([]int, n)
	copy(cursor, ptr[:n])
	for k, i := range c.rows {
		p := cursor[i]
		cursor[i]++
		cols[p], vals[p] = int32(c.cols[k]), c.vals[k]
	}
	rowPtr, out := make([]int, n+1), 0
	for i := 0; i < n; i++ {
		lo, hi := ptr[i], ptr[i+1]
		sort.Sort(rowView{cols: cols[lo:hi], vals: vals[lo:hi]})
		for p := lo; p < hi; {
			j, s := cols[p], vals[p]
			for p++; p < hi && cols[p] == j; p++ {
				s += vals[p]
			}
			if s != 0 {
				cols[out], vals[out] = j, s
				out++
			}
		}
		rowPtr[i+1] = out
	}
	return newCSR(n, rowPtr, cols[:out], vals[:out])
}

// toDIARef is CSR.toDIA filling the band through a closure: one put per
// cell, stopping at the first subdiagonal cell that differs from its
// mirror, then filling it again in full.
func (c *CSR) toDIARef(maxPadding float64) *DIA {
	n, m := c.n, c.arrays.Load()
	var offs []int
	for i := 0; i < n; i++ {
		d := 0
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if p > m.rowPtr[i] && m.colIdx[p] == m.colIdx[p-1] {
				return nil
			}
			k := int(m.colIdx[p]) - i
			for d < len(offs) && offs[d] < k {
				d++
			}
			if d == len(offs) || offs[d] != k {
				if len(offs) == diaMaxDiags {
					return nil
				}
				offs = slices.Insert(offs, d, k)
			}
			d++
		}
	}
	cells := len(offs) * n
	if cells == 0 || float64(cells-len(m.vals)) > maxPadding*float64(cells) {
		return nil
	}
	a := newDIARef(n, offs, func(a *DIA) bool {
		for i := 0; i < n; i++ {
			p, end := m.rowPtr[i], m.rowPtr[i+1]
			for d, k := range offs {
				j := i + k
				if j < 0 || j >= n {
					continue
				}
				var v float64
				if p < end && int(m.colIdx[p]) == j {
					v = m.vals[p]
					p++
				}
				if !putRef(a, d, i, v) {
					return false
				}
			}
		}
		return true
	})
	a.nnz, a.maxRow = len(m.vals), m.maxRow()
	return a
}

// newDIARefDiagonals is NewDIA's fill, diagonal by diagonal from the
// top, on the reference layout (no counts).
func newDIARefDiagonals(n int, diagonals map[int][]float64) *DIA {
	offs := make([]int, 0, len(diagonals))
	for k := range diagonals {
		offs = append(offs, k)
	}
	sort.Ints(offs)
	return newDIARef(n, offs, func(m *DIA) bool {
		for d := len(offs) - 1; d >= 0; d-- {
			k, dv := offs[d], diagonals[offs[d]]
			for i := max(0, -k); i < min(n, n-k); i++ {
				if !putRef(m, d, i, dv[i]) {
					return false
				}
			}
		}
		return true
	})
}

func newDIARef(n int, offs []int, fill func(m *DIA) bool) *DIA {
	m := &DIA{n: n, offsets: offs, base: make([]int, len(offs))}
	m.rangeFn = m.mulRange
	if m.fold() && fill(m) {
		return m
	}
	m.mirrored = 0
	for d := range offs {
		m.base[d] = d * n
	}
	m.slab = make([]float64, len(offs)*n)
	fill(m)
	return m
}

func putRef(m *DIA, d, i int, v float64) bool {
	cell := &m.slab[m.base[d]+i]
	if d < m.mirrored {
		return math.Float64bits(*cell) == math.Float64bits(v)
	}
	*cell = v
	return true
}

// csrDiff names the first array in which got differs from want, bit for
// bit, or returns "".
func csrDiff(gotM, wantM *CSR) string {
	got, want := gotM.arrays.Load(), wantM.arrays.Load()
	switch {
	case gotM.n != wantM.n:
		return fmt.Sprintf("order %d, want %d", gotM.n, wantM.n)
	case !slices.Equal(got.rowPtr, want.rowPtr):
		return "rowPtr differs"
	case !slices.Equal(got.colIdx, want.colIdx):
		return "colIdx differs"
	case !bitsEqual(got.vals, want.vals):
		return "vals differ"
	}
	return ""
}

// diaDiff names the first field in which got differs from want, the slab
// bit for bit, or returns "".
func diaDiff(got, want *DIA) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("converted: %v, want %v", got != nil, want != nil)
	case got == nil:
		return ""
	case !slices.Equal(got.offsets, want.offsets):
		return fmt.Sprintf("offsets %v, want %v", got.offsets, want.offsets)
	case !slices.Equal(got.base, want.base):
		return fmt.Sprintf("base %v, want %v", got.base, want.base)
	case got.mirrored != want.mirrored:
		return fmt.Sprintf("%d mirrored, want %d", got.mirrored, want.mirrored)
	case !bitsEqual(got.slab, want.slab):
		return "slab differs"
	case got.nnz != want.nnz || got.maxRow != want.maxRow:
		return fmt.Sprintf("counts %d/%d, want %d/%d", got.nnz, got.maxRow, want.nnz, want.maxRow)
	}
	return ""
}

var allStencilKinds = []StencilKind{Stencil1D3, Stencil2D5, Stencil2D9, Stencil3D7, Stencil3D27}

// TestGeneratorsMatchCOO: every generator that writes its rows directly
// returns the arrays its entries give through a COO, bit for bit.
func TestGeneratorsMatchCOO(t *testing.T) {
	stencilRef := func(kind StencilKind, m int) *CSR {
		n := m
		for d := 1; d < kind.Dims(); d++ {
			n *= m
		}
		coo := NewCOO(n)
		stencilEntriesRef(kind, m, coo.Add)
		return cooToCSRRef(coo)
	}
	check := func(name string, got, want *CSR) {
		t.Helper()
		if d := csrDiff(got, want); d != "" {
			t.Errorf("%s: %s from the COO path's", name, d)
		}
	}
	for _, kind := range allStencilKinds {
		for _, m := range []int{1, 2, 3, 7, 16} {
			check(fmt.Sprintf("%v m=%d", kind, m), kind.CSR(m), stencilRef(kind, m))
		}
	}
	negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	for _, m := range []int{1, 2, 5, 33} {
		check(fmt.Sprintf("Poisson1D(%d)", m), Poisson1D(m), tridiagRef(m, 2, -1))
		check(fmt.Sprintf("Poisson2D(%d)", m), Poisson2D(m), stencilRef(Stencil2D5, m))
		check(fmt.Sprintf("Poisson3D(%d)", m), Poisson3D(m), stencilRef(Stencil3D7, m))
		for _, c := range [][2]float64{{4, -1}, {2.5, 0}, {0, 1}, {0, 0}, {negZero, negZero}, {1, negZero}, {nan, 1}, {3, inf}} {
			check(fmt.Sprintf("TridiagToeplitz(%d, %v, %v)", m, c[0], c[1]), TridiagToeplitz(m, c[0], c[1]), tridiagRef(m, c[0], c[1]))
		}
	}
}

// TestSortRowIsSortSort: sortRow leaves every row — sorted, sorted with
// repeats, unsorted, short and long — exactly as sort.Sort does,
// including the order of repeated columns (the values record where each
// entry started).
func TestSortRowIsSortSort(t *testing.T) {
	rng := uint64(1)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for trial := 0; trial < 3000; trial++ {
		n := next(40)
		cols, vals := make([]int32, n), make([]float64, n)
		span := 1 + next(2*n+1)
		for p := range cols {
			cols[p], vals[p] = int32(next(span)), float64(p)
		}
		switch trial % 4 {
		case 1:
			slices.Sort(cols)
		case 2:
			for p := range cols {
				cols[p] = int32(3 * p)
			}
		}
		wantC, wantV := slices.Clone(cols), slices.Clone(vals)
		sort.Sort(rowView{cols: wantC, vals: wantV})
		sortRow(cols, vals)
		if !slices.Equal(cols, wantC) || !bitsEqual(vals, wantV) {
			t.Fatalf("trial %d (%d entries): sortRow gives %v / %v, sort.Sort %v / %v", trial, n, cols, vals, wantC, wantV)
		}
	}
}

// cooFromBytes decodes fuzz input into a COO: the first byte picks the
// order, then every three bytes add (row, column, value) from a table
// that makes duplicates cancel exactly, overflow, and carry NaN.
func cooFromBytes(data []byte) *COO {
	values := []float64{1, -1, 0.5, -0.5, 0.1, -0.1, 0, math.Copysign(0, -1), 3, 1e308, -1e308, math.NaN(), 5e-324}
	n := 1
	if len(data) > 0 {
		n += int(data[0] % 40)
		data = data[1:]
	}
	coo := NewCOO(n)
	for ; len(data) >= 3; data = data[3:] {
		coo.Add(int(data[0])%n, int(data[1])%n, values[int(data[2])%len(values)])
	}
	return coo
}

// FuzzCOOToCSR holds COO.ToCSR to the sort.Sort path bit for bit on
// arbitrary triplets: duplicates summed in the same order, exact zeros
// dropped, rows short and long, sorted and not.
func FuzzCOOToCSR(f *testing.F) {
	var dup, cancel, long, longDup []byte
	dup = append(dup, 4, 1, 2, 3, 1, 2, 4, 1, 2, 3, 0, 0, 2)
	cancel = append(cancel, 3, 0, 0, 0, 0, 0, 1, 2, 2, 4, 2, 2, 5, 2, 2, 5)
	long = append(long, 39)
	longDup = append(longDup, 31)
	for c := 30; c >= 0; c-- { // one row, 31 columns, descending
		long = append(long, 7, byte(c), byte(c))
		longDup = append(longDup, 7, byte(c%13), byte(c)) // 31 entries on 13 columns
	}
	for _, seed := range [][]byte{nil, {0}, dup, cancel, long, longDup, []byte("unsorted rows with repeats, unsorted rows with repeats")} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := cooFromBytes(data).ToCSR()
		want := cooToCSRRef(cooFromBytes(data))
		if d := csrDiff(got, want); d != "" {
			t.Fatalf("%s from the sort.Sort path", d)
		}
	})
}

// TestToDIAMatchesRef: the one-sweep band is the reference fill's to the
// bit — layout, fold decision, slab and counts — on bands that fold,
// that never could, and that stop folding at their first, a middle or
// their last row; and NewDIA's row-order fill is its diagonal-order one.
func TestToDIAMatchesRef(t *testing.T) {
	grid := Poisson2D(13)
	rcm, err := PermuteSymmetric(grid, RCMOrder(grid))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*CSR{
		"poisson1d-100": Poisson1D(100),
		"poisson2d-17":  Poisson2D(17),
		"poisson3d-12":  Poisson3D(12),
		"rcm":           rcm,
		"empty":         NewCSR(3, []int{0, 0, 0, 0}, nil, nil),
	}
	for _, n := range []int{1, 2, 7, 64, 257} {
		for ndiag := 1; ndiag <= diaMaxDiags+1; ndiag += 3 {
			for holes := 0; holes <= 5; holes += 2 {
				seed := uint64(n*1000 + ndiag*10 + holes)
				cases[fmt.Sprintf("band-%d-%d-%d", n, ndiag, holes)] = bandedCSR(seed, n, ndiag, holes)
				cases[fmt.Sprintf("mirrored-%d-%d-%d", n, ndiag, holes)] = mirrorLower(bandedCSR(seed, n, (ndiag+1)/2, holes))
			}
		}
	}
	// A symmetric band broken at its first, a middle and its last
	// subdiagonal cell.
	for _, at := range []string{"first", "middle", "last"} {
		a := Poisson2D(9)
		arr := a.arrays.Load()
		var below []int
		for i := 0; i < a.n; i++ {
			for p := arr.rowPtr[i]; p < arr.rowPtr[i+1] && int(arr.colIdx[p]) < i; p++ {
				below = append(below, p)
			}
		}
		p := map[string]int{"first": below[0], "middle": below[len(below)/2], "last": below[len(below)-1]}[at]
		arr.vals[p] = math.Nextafter(arr.vals[p], 0)
		cases["broken-at-"+at] = a
	}
	for name, a := range cases {
		for _, pad := range []float64{1, sellMaxPadding} {
			if d := diaDiff(a.toDIA(pad), a.toDIARef(pad)); d != "" {
				t.Errorf("%s padding %v: toDIA %s", name, pad, d)
			}
		}
		if a.NNZ() == 0 {
			continue
		}
		diags := diagonalsOf(a)
		for k, dv := range diags { // cells outside the matrix, which NewDIA ignores
			for i := range dv {
				if j := i + k; j < 0 || j >= a.n {
					dv[i] = float64(i) + 0.5
				}
			}
		}
		got, want := NewDIA(a.n, diags), newDIARefDiagonals(a.n, diags)
		want.nnz, want.maxRow = got.nnz, got.maxRow
		if d := diaDiff(got, want); d != "" {
			t.Errorf("%s: NewDIA %s", name, d)
		}
	}
}

// panicMessage runs f and returns what it panicked with, "" if nothing.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestMulVecTChecksBeforeItBuilds: a transpose product with a wrong
// length panics naming its own method and A's shape, and builds no
// transpose first.
func TestMulVecTChecksBeforeItBuilds(t *testing.T) {
	r := RectFromDense(3, 5, []float64{
		1, 0, 2, 0, 0,
		0, 3, 0, 0, 4,
		5, 0, 0, 6, 0,
	})
	c := Poisson2D(3)
	pool := vec.NewPoolMinChunk(2, 1)
	defer pool.Close()
	for _, tc := range []struct {
		call   func()
		cached func() bool
		want   string
	}{
		{func() { r.MulVecT(vec.New(3), vec.New(3)) }, func() bool { return r.tr.Load() != nil },
			"sparse: Rect.MulVecT dimension mismatch: A is 3x5, dst 3, x 3"},
		{func() { r.MulVecTPool(pool, vec.New(5), vec.New(5)) }, func() bool { return r.tr.Load() != nil },
			"sparse: Rect.MulVecTPool dimension mismatch: A is 3x5, dst 5, x 5"},
		{func() { c.MulVecT(vec.New(9), vec.New(8)) }, func() bool { return c.tr.Load() != nil },
			"sparse: CSR.MulVecT dimension mismatch: A is 9x9, dst 9, x 8"},
		{func() { c.MulVecTPool(pool, vec.New(10), vec.New(9)) }, func() bool { return c.tr.Load() != nil },
			"sparse: CSR.MulVecTPool dimension mismatch: A is 9x9, dst 10, x 9"},
	} {
		if got := panicMessage(tc.call); got != tc.want {
			t.Errorf("panic %q, want %q", got, tc.want)
		}
		if tc.cached() {
			t.Errorf("%s: the transpose was built before the check", strings.SplitN(tc.want, " ", 3)[1])
		}
	}
}

// TestStencilCSRAllocs: writing a stencil's CSR allocates its three
// arrays, the matrix and the arrays' holder, at every grid size — plus,
// where the default pool has more than one worker, the row partition
// every CSR constructor warms (its bounds and the cache entry).
func TestStencilCSRAllocs(t *testing.T) {
	want := 5.0
	if vec.DefaultPool.Workers() > 1 {
		want += 2
	}
	for _, kind := range allStencilKinds {
		for _, m := range []int{2, 9, 20} {
			if got := testing.AllocsPerRun(5, func() { kind.CSR(m) }); got != want {
				t.Errorf("%v m=%d: CSR allocates %v times, want %v", kind, m, got, want)
			}
		}
	}
	if got := testing.AllocsPerRun(5, func() { TridiagToeplitz(100, 4, -1) }); got != want {
		t.Errorf("TridiagToeplitz allocates %v times, want %v", got, want)
	}
}

// arrayBytes is what a CSR's three arrays hold, at their element widths.
func arrayBytes(c *CSR) int {
	m := c.arrays.Load()
	return cap(m.rowPtr)*int(unsafe.Sizeof(m.rowPtr[0])) +
		cap(m.colIdx)*int(unsafe.Sizeof(m.colIdx[0])) +
		cap(m.vals)*int(unsafe.Sizeof(m.vals[0]))
}

// TestStencilCSRFootprint: Poisson3D(32) built by StencilKind.CSR holds
// 12 bytes an entry (a 4-byte column index and an 8-byte value) and 8 a
// row offset, and building it allocates little past those arrays — no
// wider index array on the way.
func TestStencilCSRFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := Stencil3D7.CSR(32)
	runtime.ReadMemStats(&after)
	n, nnz := a.Dim(), a.NNZ()
	want := 12*nnz + 8*(n+1)
	if got := arrayBytes(a); got > want {
		t.Errorf("Poisson3D(32) arrays hold %d bytes, want at most 12·nnz + 8·(n+1) = %d", got, want)
	}
	// Large objects round up to whole pages; 64 KiB covers that, the
	// struct and the warmed partition, and not another nnz-sized array.
	if grew := int(after.TotalAlloc - before.TotalAlloc); grew > want+64<<10 {
		t.Errorf("building Poisson3D(32) allocated %d bytes, want at most %d", grew, want+64<<10)
	}
}
