package sparse

import (
	"fmt"
	"math"
	"sort"

	"vrcg/internal/vec"
)

// DIA is a diagonal-storage sparse matrix: each stored diagonal has a
// fixed offset k (k=0 is the main diagonal, k>0 superdiagonals, k<0
// subdiagonals) and a run of values indexed by row, of which only the
// rows valid for that offset are meaningful. Structured grid operators
// (Poisson stencils) are naturally banded, making DIA both compact and
// stride-friendly — it is the format the depth model's vectorized matvec
// assumes, and the one TuneMulVec runs every banded CSR on.
//
// The values sit in one slab behind a per-diagonal base: row i's
// coefficient on diagonal d is slab[base[d]+i]. A band in which every
// subdiagonal −k repeats a stored superdiagonal +k bit for bit — A = Aᵀ,
// the one property every operator CG sees has — keeps only the diagonals
// k >= 0, n values each, and reads the others out of them: A[i, i−k] is
// A[i−k, i], so base[−k] = base[+k] − k, and rows i < k, where that
// would leave the run, are the ones diagonal −k is not in. Any other
// band stores all d diagonals, base[d] = d·n, behind the same kernels;
// nothing but the matrix's own bits chooses between the two.
//
// A stored diagonal whose valid cells repeat with a short period P — a
// constant-coefficient stencil's, grid-face holes included — keeps only
// its first diaBlock + P of them, a run: no kernel call covers more than
// diaBlock rows, so every call finds its rows' cells, from row lo's
// phase on, inside that run (see finish). A mirrored subdiagonal reads
// its mirror's run. So a product streams ⌈(d+1)/2⌉·n values for a
// symmetric band, d·n for any other, less each run's n − (diaBlock + P)
// (StoredValues): Poisson3D(64)'s four stored diagonals are four runs,
// 12,354 values for 1,048,576.
//
// Every row accumulates its diagonals in ascending offset order — which
// is ascending column order — from +0, one `s += v*x` per diagonal as
// CSR.MulVec writes it, and a hole in the band adds 0·x = ±0 to a sum
// that is never -0. So the product of a DIA converted from a CSR is
// bitwise identical to that CSR's for finite x: the contract SELL
// carries, with the same exception (0·±Inf is NaN in a hole). Folding
// and runs change where a v is read from, never its bits or its place
// in the sum, so a folded band returns the full band's product bit for
// bit for every x, non-finite ones included.
type DIA struct {
	n       int
	offsets []int     // sorted ascending
	base    []int     // slab[base[d]+i] multiplies x[i+offsets[d]] in row i (see cell)
	slab    []float64 // n values per stored diagonal, or a run of diaBlock + P

	// mirrored counts the leading offsets — all the subdiagonals, or none
	// — whose cells are read out of their mirrors' and not stored.
	mirrored int

	// runs holds each diagonal's period P when the stream it reads is a
	// run, base[d] the run's start, and 0 when that stream is whole; nil
	// when no diagonal reads a run.
	runs []int

	// nnz and maxRow are fixed at construction: the structurally valid
	// non-zero values of a NewDIA matrix, the stored-entry counts of the
	// source CSR for a converted one.
	nnz, maxRow int

	// rangeFn caches the row-range kernel as a method value so pooled
	// dispatch (MulVecPool) allocates nothing per call.
	rangeFn vec.RowKernel
}

// newDIA lays out an empty band over offs (ascending), folded when every
// subdiagonal has a mirror to read. The caller then puts every cell of
// the band inside the matrix — a hole as +0 — in row order, which
// reaches A[i−k, i] before A[i, i−k]: the folded slab is built directly,
// each subdiagonal cell compared with the mirror cell already written,
// and a band that turns out not to repeat itself unfolds where it stops.
func newDIA(n int, offs []int) *DIA {
	m := &DIA{n: n, offsets: offs, base: make([]int, len(offs))}
	m.rangeFn = m.mulRange
	if !m.fold() {
		m.unfold(0)
	}
	return m
}

// fold sets up the folded layout — the diagonals k >= 0 stored in
// order, each subdiagonal pointed k rows back into its mirror — and
// reports false, nothing allocated, when some subdiagonal has no mirror
// to read.
func (m *DIA) fold() bool {
	up := sort.SearchInts(m.offsets, 0)
	stored := m.offsets[up:]
	for s := range stored {
		m.base[up+s] = s * m.n
	}
	for d, k := range m.offsets[:up] {
		s := sort.SearchInts(stored, -k)
		if s == len(stored) || stored[s] != -k {
			return false
		}
		m.base[d] = m.base[up+s] + k
	}
	m.mirrored = up
	m.slab = make([]float64, len(stored)*m.n)
	return true
}

// unfold moves the band onto the layout that stores every diagonal,
// base[d] = d·n, keeping what rows [0, rows) hold. The stored diagonals
// k >= 0 are the full slab's tail, in the same order; each subdiagonal
// cell of those rows is its mirror's, which put has compared bit for bit.
func (m *DIA) unfold(rows int) {
	n, up := m.n, m.mirrored
	slab := make([]float64, len(m.offsets)*n)
	copy(slab[up*n:], m.slab)
	for d, k := range m.offsets[:up] {
		if lo := -k; lo < rows {
			copy(slab[d*n+lo:d*n+rows], m.slab[m.base[d]+lo:m.base[d]+rows])
		}
	}
	for d := range m.base {
		m.base[d] = d * n
	}
	m.slab, m.mirrored = slab, 0
}

// put gives row i's cell on diagonal d the value v, or reports false
// when it cannot: a mirrored subdiagonal's cell is its mirror's, written
// already, so put stores nothing there and reports whether the mirror
// holds v's bits. On false the caller unfolds the band through row i
// and puts v again. put makes no call, so it inlines into the fills.
func (m *DIA) put(d, i int, v float64) bool {
	c := m.base[d] + i
	if d < m.mirrored {
		return math.Float64bits(m.slab[c]) == math.Float64bits(v)
	}
	m.slab[c] = v
	return true
}

// finish turns every stored diagonal whose valid cells repeat with a
// short period into a run, moving the band onto a slab of exactly what
// it keeps: a diagonal with L valid cells of smallest period P (bit for
// bit) keeps its first diaBlock + P, which hold its first period
// repeated, when that is at most L/2. A kernel call over runs takes its
// bases from a stack array of diaMaxDiags, so a wider band, which only
// NewDIA builds, keeps every diagonal whole.
func (m *DIA) finish() {
	n, offs, up := m.n, m.offsets, m.mirrored
	if len(offs) > diaMaxDiags {
		return
	}
	var pi []int32
	runs := make([]int, len(offs))
	size := 0
	for d := up; d < len(offs); d++ {
		lo, hi := max(0, -offs[d]), min(n, n-offs[d])
		if hi-lo >= 2*(diaBlock+1) {
			if pi == nil {
				pi = make([]int32, n)
			}
			if p := period(m.slab[m.base[d]+lo:m.base[d]+hi], pi); 2*(diaBlock+p) <= hi-lo {
				runs[d] = p
				size += diaBlock + p
				continue
			}
		}
		size += n
	}
	if size == len(m.slab) {
		return
	}
	slab, at := make([]float64, size), 0
	for d := up; d < len(offs); d++ {
		from, cells := m.base[d], n
		if runs[d] > 0 {
			from, cells = from+max(0, -offs[d]), diaBlock+runs[d]
		}
		copy(slab[at:at+cells], m.slab[from:])
		m.base[d] = at
		at += cells
	}
	for d, k := range offs[:up] {
		s := sort.SearchInts(offs, -k)
		m.base[d], runs[d] = m.base[s], runs[s]
		if runs[s] == 0 {
			m.base[d] += k
		}
	}
	m.slab, m.runs = slab, runs
}

// period returns the smallest P >= 1 with v[t+P] and v[t] the same bits
// for every t, len(v) when no shorter one holds: len(v) less the longest
// proper prefix of v that is also its suffix, taken with the prefix
// function in pi (at least len(v) long) in O(len(v)).
func period(v []float64, pi []int32) int {
	pi[0] = 0
	for t := 1; t < len(v); t++ {
		c, j := math.Float64bits(v[t]), pi[t-1]
		for j > 0 && c != math.Float64bits(v[j]) {
			j = pi[j-1]
		}
		if c == math.Float64bits(v[j]) {
			j++
		}
		pi[t] = j
	}
	return len(v) - int(pi[len(v)-1])
}

// cell returns the slab index of row i's value on diagonal d, for a row
// the diagonal lies inside the matrix on: slab[base[d]+i] for a whole
// stream; for a run, the cell of row i's phase — its distance from the
// diagonal's first valid row, mod P — from the run's start.
func (m *DIA) cell(d, i int) int {
	if m.runs == nil || m.runs[d] == 0 {
		return m.base[d] + i
	}
	return m.base[d] + (i-max(0, -m.offsets[d]))%m.runs[d]
}

// NewDIA builds a DIA matrix of order n from offset -> diagonal values.
// Each diagonal slice must have length n; entry i of diagonal with offset
// k contributes A[i, i+k] when 0 <= i+k < n (values outside that range
// are ignored).
func NewDIA(n int, diagonals map[int][]float64) *DIA {
	if n <= 0 {
		panic("sparse: NewDIA requires n > 0")
	}
	offsets := make([]int, 0, len(diagonals))
	for k, dv := range diagonals {
		if len(dv) != n {
			panic(fmt.Sprintf("sparse: diagonal %d has length %d, want %d", k, len(dv), n))
		}
		if k <= -n || k >= n {
			panic(fmt.Sprintf("sparse: diagonal offset %d out of range for n=%d", k, n))
		}
		offsets = append(offsets, k)
	}
	sort.Ints(offsets)
	dvs := make([][]float64, len(offsets))
	for d, k := range offsets {
		dvs[d] = diagonals[k]
	}
	m := newDIA(n, offsets)
	for i := 0; i < n; i++ {
		for d, k := range offsets {
			if j := i + k; j >= 0 && j < n {
				if !m.put(d, i, dvs[d][i]) {
					m.unfold(i + 1)
					m.put(d, i, dvs[d][i])
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		nz := 0
		for d, k := range offsets {
			if j := i + k; j >= 0 && j < n && m.slab[m.base[d]+i] != 0 {
				nz++
			}
		}
		m.nnz += nz
		m.maxRow = max(m.maxRow, nz)
	}
	m.finish()
	return m
}

// diaMaxDiags is the most distinct diagonals a CSR may have and still
// count as banded for TuneMulVec; the 3- to 9-point grid stencils sit
// well inside it.
const diaMaxDiags = 16

// toDIA returns m in diagonal storage when m is banded — at most
// diaMaxDiags distinct diagonals, one entry per (row, column), and no
// larger a fraction of the band left as holes than maxPadding — and nil
// otherwise. The test is one pass over colIdx that gives up at the
// first diagonal past the cap, so a matrix that is not banded costs
// O(rows scanned) and never builds anything. Padding is judged on the
// logical band, every diagonal at full length, so whether a matrix runs
// as a DIA never depends on whether its band folds.
func (m *CSR) toDIA(maxPadding float64) *DIA {
	n, rowPtr, colIdx, vals := m.n, m.rowPtr, m.colIdx, m.vals
	var buf [diaMaxDiags]int
	offs := buf[:0]
	for i := 0; i < n; i++ {
		// Columns ascend within a row, so its offsets merge into offs
		// with one forward cursor.
		d, last := 0, -n // no offset is -n
		for _, j := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			k := int(j) - i
			if k == last {
				return nil // duplicate entry: two terms, one slab cell
			}
			last = k
			for d < len(offs) && offs[d] < k {
				d++
			}
			if d == len(offs) || offs[d] != k {
				if len(offs) == diaMaxDiags {
					return nil
				}
				offs = append(offs, 0)
				copy(offs[d+1:], offs[d:])
				offs[d] = k
			}
			d++
		}
	}
	cells := len(offs) * n
	if cells == 0 || float64(cells-len(vals)) > maxPadding*float64(cells) {
		return nil
	}
	// One sweep over the rows fills the band: row i holds the run
	// [dlo, dhi) of diagonals (see cutRows).
	a := newDIA(n, append([]int(nil), offs...))
	dlo, dhi := len(offs), len(offs)
	for i := 0; i < n; i++ {
		for dlo > 0 && offs[dlo-1] >= -i {
			dlo--
		}
		for dhi > 0 && offs[dhi-1] >= n-i {
			dhi--
		}
		p, end := rowPtr[i], rowPtr[i+1]
		for d := dlo; d < dhi; d++ {
			var v float64 // a hole, unless row i stores this diagonal's column
			if p < end && int(colIdx[p]) == i+offs[d] {
				v = vals[p]
				p++
			}
			if !a.put(d, i, v) {
				a.unfold(i + 1)
				a.put(d, i, v)
			}
		}
	}
	a.nnz, a.maxRow = len(vals), m.MaxRowNonzeros()
	a.finish()
	return a
}

// Dim returns the order of the matrix.
func (m *DIA) Dim() int { return m.n }

// Offsets returns the stored diagonal offsets in ascending order.
func (m *DIA) Offsets() []int {
	out := make([]int, len(m.offsets))
	copy(out, m.offsets)
	return out
}

// StoredDiagonals returns how many diagonals' values the matrix holds:
// ⌈(d+1)/2⌉ of the d in Offsets for a symmetric band, which reads its
// subdiagonals out of their mirrors, else all d. A diagonal kept as a
// run counts as stored; StoredValues says how many cells they hold.
func (m *DIA) StoredDiagonals() int { return len(m.offsets) - m.mirrored }

// StoredValues returns how many float64 cells the matrix holds and a
// product streams: n per stored diagonal, diaBlock + P per run.
func (m *DIA) StoredValues() int { return len(m.slab) }

// At returns A[i,j] (zero when the diagonal j-i is not stored, or
// column j is not in the matrix). It panics when row i is not in the
// matrix, as CSR.At does.
func (m *DIA) At(i, j int) float64 {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("sparse: DIA.At row %d of %d rows", i, m.n))
	}
	if j < 0 || j >= m.n {
		return 0
	}
	k := j - i
	d := sort.SearchInts(m.offsets, k)
	if d < len(m.offsets) && m.offsets[d] == k {
		return m.slab[m.cell(d, i)]
	}
	return 0
}

// MulVec computes dst = A*x.
func (m *DIA) MulVec(dst, x []float64) {
	checkMul(m, dst, x)
	m.mulRange(0, m.n, dst, x)
}

// MulRows computes rows [lo, hi) of dst = A*x and writes nothing else of
// dst: any cut of the rows into ranges gives MulVec's product bit for
// bit. With Reach it is what lets a solver run the product a few rows
// behind whatever is still writing x.
func (m *DIA) MulRows(lo, hi int, dst, x []float64) {
	checkMul(m, dst, x)
	checkRows(m, lo, hi)
	m.mulRange(lo, hi, dst, x)
}

// Reach returns the largest col − row of any stored entry, 0 when none
// lies above the diagonal: rows [lo, hi) read no x at or past hi+Reach.
func (m *DIA) Reach() int {
	if len(m.offsets) == 0 {
		return 0
	}
	return max(0, m.offsets[len(m.offsets)-1])
}

// diaBlock is the most rows one kernel call covers: 16 KB of dst, so a
// row block that takes several passes (more diagonals than the widest
// Go kernel) finds its partial sums still in L1 — and the most the
// assembly kernel, which cannot be preempted, runs between two
// returns to Go (a few µs at sixteen diagonals). It also bounds a run:
// a call's rows start at some phase < P and read at most diaBlock
// cells on from it, all inside the run's diaBlock + P.
const diaBlock = 2048

// mulRange computes rows [rlo, rhi) of dst = A*x: the one kernel behind
// MulVec, MulVecPool and the tuned path.
func (m *DIA) mulRange(rlo, rhi int, dst, x []float64) {
	m.cutRows(rlo, rhi, dst, x, (*DIA).mulRows)
}

// diaRowKernel computes out = rows [lo, hi) of A*x over diagonals
// [dlo, dhi), all inside the matrix on every one of those rows: mulRows,
// or mulRowsGo for the tests and benchmarks that compare the two.
type diaRowKernel func(m *DIA, lo, hi, dlo, dhi int, out, x []float64)

// cutRows is mulRange over a given row kernel. Row i holds diagonal k when
// 0 <= i+k < n — a contiguous run [dlo, dhi) of the ascending offsets
// that only shrinks from the top and grows at the bottom as i rises —
// so the range is cut where that run changes and each piece goes to the
// kernel with exactly its diagonals, no per-entry guard. A row's sum
// never depends on where the cuts fall, so any split of the rows gives
// the serial product bit for bit.
func (m *DIA) cutRows(rlo, rhi int, dst, x []float64, rows diaRowKernel) {
	n, offs := m.n, m.offsets
	dlo, dhi := len(offs), len(offs)
	for lo := rlo; lo < rhi; {
		for dlo > 0 && offs[dlo-1] >= -lo {
			dlo--
		}
		for dhi > 0 && offs[dhi-1] >= n-lo {
			dhi--
		}
		hi := min(rhi, lo+diaBlock)
		if dlo > 0 { // the next subdiagonal enters at row -k
			hi = min(hi, -offs[dlo-1])
		}
		if dhi > 0 { // the last diagonal leaves at row n-k (past rhi unless k > 0)
			hi = min(hi, n-offs[dhi-1])
		}
		rows(m, lo, hi, dlo, dhi, dst[lo:hi], x)
		lo = hi
	}
}

// diaPass is the most diagonals one pass of the Go kernels over a row
// block fuses: compiled by gc, four value streams, four x streams, dst
// and the loop state fill the sixteen general registers, and a fifth
// pair spills (a fused 7-diagonal loop measured 30% slower than a 4-pass
// and a 3-pass). dia5 is the one exception, worth having because it is
// the whole 5-point stencil. The assembly kernel keeps one pointer per
// operand and walks the diagonals in an inner loop, so it has no such
// limit.
const diaPass = 4

// mulRows computes out = rows [lo, hi) of A*x — at most diaBlock rows —
// over diagonals [dlo, dhi), all of which lie inside the matrix on every
// one of those rows: in one pass of vec.DIARows where the assembly
// bodies run, by mulRowsGo — the definition of the sum — everywhere
// else, bit for bit the same.
func (m *DIA) mulRows(lo, hi, dlo, dhi int, out, x []float64) {
	base := m.base[dlo:dhi]
	if m.runs != nil {
		var buf [diaMaxDiags]int
		base = m.runBases(buf[:dhi-dlo], lo, dlo)
	}
	if dhi > dlo && vec.DIARows(out, m.slab, base, x, lo, m.offsets[dlo:dhi]) {
		return
	}
	m.mulRowsGo(lo, hi, dlo, dhi, out, x)
}

// runBases fills buf with the bases one kernel call over rows from lo
// reads diagonals dlo, dlo+1, … through: cell(d, lo) − lo, so that
// slab[base+i] is row i's cell, which for a run is its start plus row
// lo's phase.
func (m *DIA) runBases(buf []int, lo, dlo int) []int {
	for d := range buf {
		buf[d] = m.cell(dlo+d, lo) - lo
	}
	return buf
}

// mulRowsGo is mulRows on the Go kernels. Up to five diagonals take one
// pass; more are split into near-equal passes of at most diaPass, the
// first storing and the rest picking the partial sum back up from out —
// the same left-to-right sum.
func (m *DIA) mulRowsGo(lo, hi, dlo, dhi int, out, x []float64) {
	offs, base := m.offsets, m.base[dlo:dhi]
	if m.runs != nil {
		var buf [diaMaxDiags]int
		base = m.runBases(buf[:dhi-dlo], lo, dlo)
	}
	dv := func(d int) []float64 { return m.slab[base[d-dlo]+lo : base[d-dlo]+hi] }
	xv := func(d int) []float64 { return x[lo+offs[d] : hi+offs[d]] }
	switch dhi - dlo {
	case 0:
		clear(out)
		return
	case 5:
		d := dlo
		dia5(out, dv(d), dv(d+1), dv(d+2), dv(d+3), dv(d+4), xv(d), xv(d+1), xv(d+2), xv(d+3), xv(d+4))
		return
	}
	for d := dlo; d < dhi; {
		passes := (dhi - d + diaPass - 1) / diaPass
		acc := d > dlo
		switch (dhi - d + passes - 1) / passes {
		case 1:
			dia1(out, acc, dv(d), xv(d))
			d++
		case 2:
			dia2(out, acc, dv(d), dv(d+1), xv(d), xv(d+1))
			d += 2
		case 3:
			dia3(out, acc, dv(d), dv(d+1), dv(d+2), xv(d), xv(d+1), xv(d+2))
			d += 3
		default:
			dia4(out, acc, dv(d), dv(d+1), dv(d+2), dv(d+3), xv(d), xv(d+1), xv(d+2), xv(d+3))
			d += 4
		}
	}
}

// The fused row kernels. Each computes out[i] (+)= Σ dk[i]*xk[i] with
// the streams resliced to len(out) so the loop carries no bounds check,
// starting from +0 (or, when acc, from out[i]) and adding one diagonal
// per statement in argument order, exactly as CSR.MulVec adds one entry
// per statement — so a platform that fuses the multiply-add fuses both.

func dia1(out []float64, acc bool, d0, x0 []float64) {
	d0, x0 = d0[:len(out)], x0[:len(out)]
	for i := range out {
		var s float64
		if acc {
			s = out[i]
		}
		s += d0[i] * x0[i]
		out[i] = s
	}
}

func dia2(out []float64, acc bool, d0, d1, x0, x1 []float64) {
	d0, x0 = d0[:len(out)], x0[:len(out)]
	d1, x1 = d1[:len(out)], x1[:len(out)]
	for i := range out {
		var s float64
		if acc {
			s = out[i]
		}
		s += d0[i] * x0[i]
		s += d1[i] * x1[i]
		out[i] = s
	}
}

func dia3(out []float64, acc bool, d0, d1, d2, x0, x1, x2 []float64) {
	d0, x0 = d0[:len(out)], x0[:len(out)]
	d1, x1 = d1[:len(out)], x1[:len(out)]
	d2, x2 = d2[:len(out)], x2[:len(out)]
	for i := range out {
		var s float64
		if acc {
			s = out[i]
		}
		s += d0[i] * x0[i]
		s += d1[i] * x1[i]
		s += d2[i] * x2[i]
		out[i] = s
	}
}

func dia4(out []float64, acc bool, d0, d1, d2, d3, x0, x1, x2, x3 []float64) {
	d0, x0 = d0[:len(out)], x0[:len(out)]
	d1, x1 = d1[:len(out)], x1[:len(out)]
	d2, x2 = d2[:len(out)], x2[:len(out)]
	d3, x3 = d3[:len(out)], x3[:len(out)]
	for i := range out {
		var s float64
		if acc {
			s = out[i]
		}
		s += d0[i] * x0[i]
		s += d1[i] * x1[i]
		s += d2[i] * x2[i]
		s += d3[i] * x3[i]
		out[i] = s
	}
}

// dia5 only stores: an acc flag is the register that makes gc spill.
func dia5(out, d0, d1, d2, d3, d4, x0, x1, x2, x3, x4 []float64) {
	d0, x0 = d0[:len(out)], x0[:len(out)]
	d1, x1 = d1[:len(out)], x1[:len(out)]
	d2, x2 = d2[:len(out)], x2[:len(out)]
	d3, x3 = d3[:len(out)], x3[:len(out)]
	d4, x4 = d4[:len(out)], x4[:len(out)]
	for i := range out {
		var s float64
		s += d0[i] * x0[i]
		s += d1[i] * x1[i]
		s += d2[i] * x2[i]
		s += d3[i] * x3[i]
		s += d4[i] * x4[i]
		out[i] = s
	}
}

// MulVecPool computes dst = A*x in parallel over the pool by splitting
// the rows into near-equal chunks (diagonal storage does uniform work
// per row). Small systems, a nil pool, or a serial pool fall back to
// the serial MulVec. The result is bitwise identical to MulVec.
func (m *DIA) MulVecPool(pool *Pool, dst, x []float64) {
	checkMul(m, dst, x)
	if !pool.RowMulVec(m.n, dst, x, m.rangeFn) {
		m.MulVec(dst, x)
	}
}

// MaxRowNonzeros returns the maximum count of structurally nonzero
// entries in any row (for a matrix converted from a CSR, that CSR's
// longest row).
func (m *DIA) MaxRowNonzeros() int { return m.maxRow }

// NNZ returns the count of structurally valid nonzero entries (for a
// matrix converted from a CSR, that CSR's stored-entry count, explicit
// zeros included, so flop accounting does not depend on tuning).
func (m *DIA) NNZ() int { return m.nnz }

// ToCSR converts to CSR form.
func (m *DIA) ToCSR() *CSR {
	coo := NewCOO(m.n)
	for d, k := range m.offsets {
		lo, hi := 0, m.n
		if k > 0 {
			hi = m.n - k
		} else if k < 0 {
			lo = -k
		}
		for i := lo; i < hi; i++ {
			if v := m.slab[m.cell(d, i)]; v != 0 {
				coo.Add(i, i+k, v)
			}
		}
	}
	return coo.ToCSR()
}

var (
	_ Matrix     = (*DIA)(nil)
	_ Sparse     = (*DIA)(nil)
	_ PoolMulVec = (*DIA)(nil)
)
