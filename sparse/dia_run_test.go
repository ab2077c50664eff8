package sparse

import (
	"fmt"
	"math"
	"testing"

	"vrcg/internal/vec"
)

// periodicCSR builds a deterministic band of order n over ndiag distinct
// diagonals drawn from ±w (w itself drawn up to n − 1), each repeating
// its own pattern along the rows: cell (i, i+k) is pattern_k[i mod P_k],
// P_k up to 4096, about holes/8 of a pattern's cells left out (a hole
// repeats like a grid face's) and about one in eight an explicit zero.
func periodicCSR(seed uint64, n, ndiag, holes int) *CSR {
	rng := seed | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	w := min(n-1, 1<<(next()%16))
	picked := map[int][]float64{}
	for tries := 0; len(picked) < min(ndiag, 2*w+1) && tries < 64*ndiag; tries++ {
		k := int(next()%uint64(2*w+1)) - w
		if picked[k] != nil {
			continue
		}
		pattern := make([]float64, 1+next()%(1<<(next()%13)))
		for t := range pattern {
			switch {
			case int(next()%8) < holes:
				pattern[t] = math.NaN() // a hole
			case next()%8 == 0:
				pattern[t] = 0
			default:
				pattern[t] = float64(int64(next()))/float64(1<<40) - 0.5
			}
		}
		picked[k] = pattern
	}
	var cells []cell
	for k, pattern := range picked {
		for i := max(0, -k); i < min(n, n-k); i++ {
			if v := pattern[i%len(pattern)]; !math.IsNaN(v) {
				cells = append(cells, cell{i, i + k, v})
			}
		}
	}
	return cellsCSR(n, cells)
}

// shortPeriod is the run rule read off the matrix itself, by brute
// force: the smallest P that diagonal k's cells (holes as +0) repeat
// with bit for bit, when its diaBlock + P cells are at most half of
// them, else 0.
func shortPeriod(a *CSR, k int) int {
	n := a.Dim()
	lo, hi := max(0, -k), min(n, n-k)
	v := make([]uint64, hi-lo)
	for t := range v {
		v[t] = math.Float64bits(a.At(lo+t, lo+t+k))
	}
candidates:
	for p := 1; 2*(diaBlock+p) <= len(v); p++ {
		for t := p; t < len(v); t++ {
			if v[t] != v[t-p] {
				continue candidates
			}
		}
		return p
	}
	return 0
}

// checkBandAgainstCSR is checkDIAAgainstCSR in O(n·d), for orders whose
// runs a dense At sweep could not reach: the source's counts, the fold
// rule, every stored diagonal a run exactly when the run rule says so,
// At and a ToCSR round trip over every band cell, and MulVec, MulRows in
// cuts that straddle periods and row blocks, the Go row kernels and
// MulVecPool bit for bit equal to CSR.MulVec.
func checkBandAgainstCSR(t *testing.T, name string, a *CSR, d *DIA, seed uint64) {
	t.Helper()
	n, offs := a.Dim(), d.Offsets()
	if got, want := d.StoredDiagonals(), wantStoredDiagonals(a, offs); got != want {
		t.Fatalf("%s: offsets %v: %d diagonals stored, the fold rule says %d", name, offs, got, want)
	}
	if d.Dim() != n || d.NNZ() != a.NNZ() || d.MaxRowNonzeros() != a.MaxRowNonzeros() {
		t.Fatalf("%s: counts: dim %d/%d nnz %d/%d maxrow %d/%d",
			name, d.Dim(), n, d.NNZ(), a.NNZ(), d.MaxRowNonzeros(), a.MaxRowNonzeros())
	}
	values := 0
	for s, k := range offs[d.mirrored:] {
		p := shortPeriod(a, k)
		if got := d.runPeriod(d.mirrored + s); got != p {
			t.Fatalf("%s: diagonal %d is a run of period %d, want %d", name, k, got, p)
		}
		if p == 0 {
			values += n
		} else {
			values += diaBlock + p
		}
	}
	if d.StoredValues() != values {
		t.Fatalf("%s: %d values stored, the run rule says %d", name, d.StoredValues(), values)
	}
	back := d.ToCSR()
	for _, k := range offs {
		for i := max(0, -k); i < min(n, n-k); i++ {
			want := a.At(i, i+k)
			if got := d.At(i, i+k); math.Float64bits(got) != math.Float64bits(want) || back.At(i, i+k) != want {
				t.Fatalf("%s: At(%d,%d): DIA %v, round trip %v, CSR %v", name, i, i+k, got, back.At(i, i+k), want)
			}
		}
	}

	x, want, got := vec.New(n), vec.New(n), vec.New(n)
	vec.Random(x, seed)
	a.MulVec(want, x)
	vec.Fill(got, math.NaN())
	d.MulVec(got, x)
	if !bitsEqual(got, want) {
		t.Fatalf("%s: MulVec differs from CSR.MulVec bitwise", name)
	}
	for _, step := range []int{1, 7, 63, 64, 65, 4095, diaBlock - 1, diaBlock + 1, 3*diaBlock + 5} {
		vec.Fill(got, math.NaN())
		for lo := 0; lo < n; lo += step {
			d.MulRows(lo, min(n, lo+step), got, x)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("%s: MulRows %d rows at a time differs from CSR.MulVec bitwise", name, step)
		}
	}
	rng := seed*2654435761 + 1
	vec.Fill(got, math.NaN())
	for lo := 0; lo < n; {
		rng = rng*6364136223846793005 + 1442695040888963407
		hi := min(n, lo+int(rng>>33)%(n/5+2))
		d.cutRows(lo, hi, got, x, (*DIA).mulRowsGo)
		lo = hi
	}
	if !bitsEqual(got, want) {
		t.Fatalf("%s: the Go row kernels over an arbitrary split differ from CSR.MulVec bitwise", name)
	}
	for _, w := range []int{2, 3} {
		pool := vec.NewPoolMinChunk(w, 1)
		vec.Fill(got, math.NaN())
		d.MulVecPool(pool, got, x)
		pool.Close()
		if !bitsEqual(got, want) {
			t.Fatalf("%s: MulVecPool(%d) differs from CSR.MulVec bitwise", name, w)
		}
	}
}

// runPeriod is diagonal d's run period, 0 when it reads a whole stream.
func (m *DIA) runPeriod(d int) int {
	if m.runs == nil {
		return 0
	}
	return m.runs[d]
}

// nudged returns a copy of a with A[i, i+k] moved by one ulp.
func nudged(a *CSR, i, k int) *CSR {
	cells := cellsOf(a)
	for p := range cells {
		if cells[p].i == i && cells[p].j == i+k {
			cells[p].v = math.Nextafter(cells[p].v, 2)
			return cellsCSR(a.Dim(), cells)
		}
	}
	panic(fmt.Sprintf("no entry at (%d, %d)", i, i+k))
}

// upwind2D is a convection–diffusion operator on an m×m grid, the
// convection taken upwind: a constant-coefficient band that is not
// symmetric, so it stores every diagonal.
func upwind2D(m int) *CSR {
	var cells []cell
	for i := 0; i < m*m; i++ {
		cells = append(cells, cell{i, i, 4.75})
		if i%m > 0 {
			cells = append(cells, cell{i, i - 1, -1.75})
		}
		if i%m < m-1 {
			cells = append(cells, cell{i, i + 1, -1})
		}
		if i >= m {
			cells = append(cells, cell{i, i - m, -1})
		}
		if i < m*m-m {
			cells = append(cells, cell{i, i + m, -1})
		}
	}
	return cellsCSR(m*m, cells)
}

// TestDIAPeriodicBitwise: a band whose diagonals repeat keeps each as a
// run of its first period and is, to every caller, the band that stores
// them whole — the CSR's product, rows and cells bit for bit. One cell
// moved an ulp keeps its diagonal whole; a coefficient that varies over
// the grid makes no run at all.
func TestDIAPeriodicBitwise(t *testing.T) {
	aniso, err := AnisotropicPoisson2D(128, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	varcoeff, err := VarCoeffPoisson2D(128, func(x, y float64) float64 { return 1 + x*x + 3*y })
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		name  string
		a     *CSR
		whole []int // the stored diagonals that are not runs; nil: none
		runs  bool
	}{
		{"poisson1d-50000", Poisson1D(50000), nil, true},
		{"poisson2d-100", Poisson2D(100), nil, true},
		{"poisson2d-128", Poisson2D(128), nil, true},
		{"poisson3d-32", Poisson3D(32), nil, true},
		{"poisson3d-64", Poisson3D(64), nil, true},
		{"anisotropic2d-128", aniso, nil, true},
		{"toeplitz-20000", TridiagToeplitz(20000, 2.5, -1.1), nil, true},
		{"upwind2d-100", upwind2D(100), nil, true},
		{"poisson2d-128-main-nudged", nudged(Poisson2D(128), 9000, 0), []int{0}, true},
		{"poisson2d-128-upper-nudged", nudged(Poisson2D(128), 9000, 1), []int{1}, true},
		{"varcoeff2d-128", varcoeff, []int{0, 1, 128}, false},
	} {
		d := c.a.toDIA(1)
		if d == nil {
			t.Fatalf("%s: not converted", c.name)
		}
		if (d.runs != nil) != c.runs {
			t.Fatalf("%s: runs %v, want runs: %v", c.name, d.runs, c.runs)
		}
		for s, k := range d.offsets[d.mirrored:] {
			whole := false
			for _, w := range c.whole {
				whole = whole || w == k
			}
			if got := d.runPeriod(d.mirrored + s); (got == 0) != whole {
				t.Fatalf("%s: diagonal %d has run period %d, want it stored whole: %v", c.name, k, got, whole)
			}
		}
		checkBandAgainstCSR(t, c.name, c.a, d, uint64(i)+1)
	}
}

// TestDIARunFootprint: the tuned operator of the judged lib-stream
// workload, Poisson3D(64), holds its four stored diagonals as runs —
// 2049 + 2112 + 6144 + 2049 values, not 4·262144.
func TestDIARunFootprint(t *testing.T) {
	d, ok := TuneMulVec(Poisson3D(64)).(*DIA)
	if !ok {
		t.Fatal("Poisson3D(64) is not tuned to diagonal storage")
	}
	if got := len(d.slab); got > 16384 || d.StoredValues() != got {
		t.Fatalf("tuned Poisson3D(64) holds %d values (StoredValues %d), want at most 16384", got, d.StoredValues())
	}
}

// TestDIAAtPanicsOutsideTheMatrix: a row outside the matrix is an
// error, as it is for CSR.At, not another row's cell.
func TestDIAAtPanicsOutsideTheMatrix(t *testing.T) {
	for _, c := range []struct {
		name string
		d    *DIA
	}{
		{"poisson2d-4", Poisson2D(4).toDIA(1)},
		{"poisson1d-5000", Poisson1D(5000).toDIA(1)}, // runs
		{"unfolded", NewDIA(3, map[int][]float64{0: {2, 2, 2}, 1: {-1, 0, 7}, -1: {9, -3, 0}})},
	} {
		n := c.d.Dim()
		for _, q := range [][2]int{{-1, 0}, {-4, 0}, {-1, -1}, {n, n - 1}, {n, 0}, {n + 3, n}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: At(%d,%d) did not panic", c.name, q[0], q[1])
					}
				}()
				c.d.At(q[0], q[1])
			}()
		}
		if got := c.d.At(0, 0); got != 2 && got != 4 {
			t.Errorf("%s: At(0,0) = %v", c.name, got)
		}
		if got := c.d.At(n-1, n); got != 0 {
			t.Errorf("%s: At(%d,%d) = %v, want 0", c.name, n-1, n, got)
		}
	}
}
