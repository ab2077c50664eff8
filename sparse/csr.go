package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"vrcg/internal/vec"
)

// COO is a coordinate-format builder for sparse matrices. Entries may be
// added in any order; duplicate (i,j) entries are summed when converting
// to CSR, matching the usual finite-element assembly convention.
type COO struct {
	n    int
	rows []int
	cols []int
	vals []float64
}

// NewCOO returns an empty n x n coordinate builder.
func NewCOO(n int) *COO {
	if n <= 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: NewCOO requires 0 < n <= %d, got %d", math.MaxInt32, n))
	}
	return &COO{n: n}
}

// Dim returns the order of the matrix being assembled.
func (c *COO) Dim() int { return c.n }

// Add accumulates v into entry (i, j).
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		panic(fmt.Sprintf("sparse: COO.Add index (%d,%d) out of range for n=%d", i, j, c.n))
	}
	c.rows = append(c.rows, i)
	c.cols = append(c.cols, j)
	c.vals = append(c.vals, v)
}

// AddSym accumulates v into (i, j) and, when i != j, into (j, i).
func (c *COO) AddSym(i, j int, v float64) {
	c.Add(i, j, v)
	if i != j {
		c.Add(j, i, v)
	}
}

// Len returns the number of accumulated (possibly duplicate) entries.
func (c *COO) Len() int { return len(c.vals) }

// ToCSR converts the accumulated entries into compressed sparse row form,
// summing duplicates and dropping entries that cancel to exactly zero
// (see assemble).
func (c *COO) ToCSR() *CSR {
	rowPtr, cols, vals := assemble(c.n, c.rows, c.cols, c.vals)
	return newCSR(c.n, rowPtr, cols, vals)
}

// assemble builds the CSR arrays of a matrix with the given number of
// rows from triplets (rs[k], cs[k], vs[k]), which it leaves untouched:
// duplicates summed, entries that sum to exactly zero dropped. Every
// triplet must lie inside the matrix; the column count is the caller's,
// and at most math.MaxInt32.
//
// The build is sort-based rather than map-based: a counting sort buckets
// entries by row in O(nnz), each row is put in column order by sortRow,
// and duplicates are merged in a single in-place compaction pass. A row
// whose entries were added in strictly ascending column order is not
// touched, and duplicates are summed in the order they always were.
func assemble(rows int, rs, cs []int, vs []float64) (rowPtr []int, cols []int32, vals []float64) {
	nnz := len(vs)

	// Pass 1: counting sort by row.
	ptr := make([]int, rows+1)
	for _, i := range rs {
		ptr[i+1]++
	}
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	cols = make([]int32, nnz)
	vals = make([]float64, nnz)
	cursor := make([]int, rows)
	copy(cursor, ptr[:rows])
	for k, i := range rs {
		p := cursor[i]
		cursor[i]++
		cols[p] = int32(cs[k])
		vals[p] = vs[k]
	}

	// Pass 2: per-row column sort, then in-place merge of duplicate
	// columns (summed) and exact zeros (dropped). The write cursor never
	// overtakes the read cursor, so compaction reuses the same arrays.
	rowPtr = make([]int, rows+1)
	out := 0
	for i := 0; i < rows; i++ {
		lo, hi := ptr[i], ptr[i+1]
		sortRow(cols[lo:hi], vals[lo:hi])
		p := lo
		for p < hi {
			j := cols[p]
			s := vals[p]
			p++
			for p < hi && cols[p] == j {
				s += vals[p]
				p++
			}
			if s != 0 {
				cols[out] = j
				vals[out] = s
				out++
			}
		}
		rowPtr[i+1] = out
	}
	return rowPtr, cols[:out], vals[:out]
}

// CSR is a compressed sparse row matrix: for row i, the structural
// nonzeros live at positions rowPtr[i]..rowPtr[i+1] of colIdx/vals,
// with column indices sorted ascending within each row. Column indices
// are 32-bit, since the order is at most math.MaxInt32; row offsets
// count entries, which can pass it, and stay int.
//
// A CSR that TuneMulVec runs on a band is stored as that band once the
// band reproduces it: when no stored value compares equal to zero, the
// band's cells are +0 exactly where the CSR stores nothing and its
// values, bit for bit, everywhere else, so the arrays are released.
// Products then run on the band, and NNZ and MaxRowNonzeros read its
// counts. Every other method that needs the arrays — the row reads
// (At, ScanRow, Diag, IsSymmetric, IsDiagonallyDominant, ToDense, a
// RowPartition the cache does not hold) and what hands the arrays out
// or writes them (Values, SetValues, Scale, CloneValues, MulVecT's
// transpose, ToSELL, EncodeCSR) — rebuilds them from the band, exactly,
// and pins them: a pinned CSR is never released again. No read returns
// a different bit for it, nor does a product for finite x (see
// TuneMulVec).
type CSR struct {
	n int

	// arrays is the matrix's storage, nil once released. Released ⇒
	// tuned is the *DIA the arrays were built into: publish releases
	// only after caching it, and only valuesChanged clears tuned, on
	// arrays it has pinned. Every method loads arrays once and works
	// on what it loaded.
	arrays atomic.Pointer[csrArrays]

	// part caches the most recent nnz-balanced row partition (see
	// RowPartition). It is an atomic pointer so concurrent MulVecPool
	// callers can share one matrix safely.
	part atomic.Pointer[rowPartition]

	// tuned caches the TuneMulVec decision for this matrix (a DIA or
	// SELL conversion, or "keep CSR"), so format auto-selection runs
	// once per matrix rather than once per solve.
	tuned atomic.Pointer[tunedOp]

	// tr caches the explicit transpose for MulVecT/MulVecTPool. The
	// value-mutating methods rewrite its values in place (and drop
	// tuned).
	tr atomic.Pointer[CSR]
}

// rowPartition is a cached chunking of rows into parts of near-equal
// nonzero count: chunk c covers rows bounds[c]..bounds[c+1].
type rowPartition struct {
	parts  int
	bounds []int
}

// csrArrays is a CSR's storage. Once published it is never changed but
// for vals, which only the mutators rewrite, on pinned arrays; pinned
// arrays are never released.
type csrArrays struct {
	rowPtr []int
	colIdx []int32
	vals   []float64
	pinned bool
}

// newCSR wraps arrays in CSR order, rows sorted, as a matrix whose row
// partition is warmed (see warmPartition).
func newCSR(n int, rowPtr []int, colIdx []int32, vals []float64) *CSR {
	m := &CSR{n: n}
	m.arrays.Store(&csrArrays{rowPtr: rowPtr, colIdx: colIdx, vals: vals})
	m.warmPartition()
	return m
}

// band returns the tuned DIA, which stands for the arrays once they are
// released.
func (m *CSR) band() *DIA { return m.tuned.Load().op.(*DIA) }

// operands returns what a product runs on: the cached tuned operator
// when there is one, else the arrays.
func (m *CSR) operands() (Matrix, *csrArrays) {
	if t := m.tuned.Load(); t != nil && t.op != nil {
		return t.op, nil
	}
	if a := m.arrays.Load(); a != nil {
		return nil, a
	}
	return m.band(), nil // tuned and released since the first load
}

// held returns the arrays, rebuilt from the band and pinned when they
// were released (see pin).
func (m *CSR) held() *csrArrays {
	if a := m.arrays.Load(); a != nil {
		return a
	}
	return m.pin()
}

// pin returns the arrays, marked never to be released, rebuilding them
// from the band (DIA.arrays, exact here) first when they were.
func (m *CSR) pin() *csrArrays {
	for {
		a := m.arrays.Load()
		if a != nil && a.pinned {
			return a
		}
		p := &csrArrays{pinned: true}
		if a != nil {
			p.rowPtr, p.colIdx, p.vals = a.rowPtr, a.colIdx, a.vals
		} else {
			p.rowPtr, p.colIdx, p.vals = m.band().arrays()
		}
		if m.arrays.CompareAndSwap(a, p) {
			return p
		}
	}
}

// publish caches dec, the TuneMulVec decision made over the arrays a,
// with one compare-and-swap, and returns the cached decision: a call
// that loses to another returns the winner's. The winner releases a
// when dec is a band, built from a, that reproduces it — no stored value
// compares equal to zero, so its +0 cells are exactly the entries a
// does not store — and a has not been pinned before or since.
func (m *CSR) publish(a *csrArrays, dec *tunedOp) *tunedOp {
	if !m.tuned.CompareAndSwap(nil, dec) {
		return m.tuned.Load()
	}
	if _, ok := dec.op.(*DIA); ok && !a.pinned && !slices.Contains(a.vals, 0) {
		m.arrays.CompareAndSwap(a, nil)
	}
	return dec
}

// NewCSR builds a CSR matrix from its raw arrays. rowPtr and vals are
// used without copying; the column indices are copied once into the
// matrix's own 32-bit array, so colIdx is left as it was and may be
// reused. rowPtr must have length n+1, colIdx/vals length rowPtr[n], and
// every column index must lie in [0, n), with n at most math.MaxInt32.
// Rows are sorted by column during construction (see sortRow) — the
// copied indices and vals in place: a row that is already sorted is not
// touched, and repeated columns keep the order they always did.
func NewCSR(n int, rowPtr, colIdx []int, vals []float64) *CSR {
	cols := columns32("NewCSR", n, colIdx)
	if len(rowPtr) != n+1 {
		panic(fmt.Sprintf("sparse: rowPtr length %d, want %d", len(rowPtr), n+1))
	}
	if len(colIdx) != rowPtr[n] || len(vals) != rowPtr[n] {
		panic("sparse: colIdx/vals length disagrees with rowPtr")
	}
	sortRows(rowPtr, cols, vals)
	return newCSR(n, rowPtr, cols, vals)
}

// columns32 returns colIdx as 32-bit column indices of a matrix with
// cols columns, panicking, in the name of the constructor, on a column
// count past math.MaxInt32 or an index outside [0, cols).
func columns32(method string, cols int, colIdx []int) []int32 {
	if cols > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: %s: %d columns exceed the 32-bit column index", method, cols))
	}
	out := make([]int32, len(colIdx))
	for k, j := range colIdx {
		if j < 0 || j >= cols {
			panic(fmt.Sprintf("sparse: %s: column index %d out of range for cols=%d", method, j, cols))
		}
		out[k] = int32(j)
	}
	return out
}

// sortRows puts every row of a CSR structure in column order.
func sortRows(rowPtr []int, colIdx []int32, vals []float64) {
	for i := 0; i+1 < len(rowPtr); i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		sortRow(colIdx[lo:hi], vals[lo:hi])
	}
}

// sortRow sorts one row's entries by column, carrying the values along,
// and leaves them exactly as sort.Sort(rowView) would. A row whose
// columns already strictly increase has one sorted order and is in it,
// so it is left as it is; any other row goes through sort.Sort. So
// repeated columns end in the same order for every input, and COO.ToCSR
// sums them in the same order.
func sortRow(cols []int32, vals []float64) {
	for i := 1; i < len(cols); i++ {
		if cols[i-1] >= cols[i] {
			sort.Sort(rowView{cols: cols, vals: vals})
			return
		}
	}
}

type rowView struct {
	cols []int32
	vals []float64
}

func (r rowView) Len() int           { return len(r.cols) }
func (r rowView) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r rowView) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// at returns entry (i, j), zero if it is not stored.
func (a *csrArrays) at(i, j int) float64 {
	if uint(j) >= uint(len(a.rowPtr)-1) {
		return 0
	}
	lo, hi := a.rowPtr[i], a.rowPtr[i+1]
	if k, ok := slices.BinarySearch(a.colIdx[lo:hi], int32(j)); ok {
		return a.vals[lo+k]
	}
	return 0
}

// maxRow returns the most entries any row stores.
func (a *csrArrays) maxRow() int {
	maxNZ := 0
	for i := 0; i+1 < len(a.rowPtr); i++ {
		if nz := a.rowPtr[i+1] - a.rowPtr[i]; nz > maxNZ {
			maxNZ = nz
		}
	}
	return maxNZ
}

// mulVec computes dst = A*x row by row, each row's entries summed in
// column order from +0.
func (a *csrArrays) mulVec(dst, x []float64) {
	for i := range dst {
		var s float64
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			s += a.vals[p] * x[a.colIdx[p]]
		}
		dst[i] = s
	}
}

// Dim returns the order of the matrix.
func (m *CSR) Dim() int { return m.n }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int {
	if a := m.arrays.Load(); a != nil {
		return len(a.vals)
	}
	return m.band().nnz
}

// MaxRowNonzeros returns the maximum number of stored entries in any row
// (the paper's sparsity parameter d).
func (m *CSR) MaxRowNonzeros() int {
	if a := m.arrays.Load(); a != nil {
		return a.maxRow()
	}
	return m.band().maxRow
}

// At returns A[i,j] (zero if the entry is not stored).
func (m *CSR) At(i, j int) float64 { return m.held().at(i, j) }

// ScanRow calls emit for every stored entry (column, value) of row i in
// ascending column order.
func (m *CSR) ScanRow(i int, emit func(j int, v float64)) {
	a := m.held()
	for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
		emit(int(a.colIdx[p]), a.vals[p])
	}
}

// Diag extracts the diagonal into dst (length n). Missing diagonal
// entries are zero.
func (m *CSR) Diag(dst []float64) {
	if len(dst) != m.n {
		panic("sparse: Diag dimension mismatch")
	}
	a := m.held()
	for i := 0; i < m.n; i++ {
		dst[i] = a.at(i, i)
	}
}

// MulVec computes dst = A*x: on the cached tuned operator when there is
// one, which returns the CSR's bits for finite x (see TuneMulVec), else
// row by row.
func (m *CSR) MulVec(dst, x []float64) {
	checkMul(m, dst, x)
	if op, a := m.operands(); op != nil {
		op.MulVec(dst, x)
	} else {
		a.mulVec(dst, x)
	}
}

// warmPartition precomputes the nnz-balanced row partition for the
// shared default pool at construction time, so the first hot-path
// MulVecPool call does no partitioning work.
func (m *CSR) warmPartition() {
	if w := vec.DefaultPool.Workers(); w > 1 {
		m.RowPartition(w)
	}
}

// RowPartition returns chunk boundaries that split the rows into at most
// parts contiguous ranges of near-equal *nonzero* count (equal work, not
// equal row count — the partition an irregular sparsity pattern needs
// for balanced parallel SpMV). The result has between 2 and parts+1
// offsets, starts at 0, ends at Dim, and is strictly increasing. The
// most recent partition is cached on the matrix.
func (m *CSR) RowPartition(parts int) []int {
	if parts < 1 {
		parts = 1
	}
	if parts > m.n {
		parts = m.n
	}
	if cached := m.part.Load(); cached != nil && cached.parts == parts {
		return cached.bounds
	}
	bounds := nnzBalancedBounds(m.held().rowPtr, parts)
	m.part.Store(&rowPartition{parts: parts, bounds: bounds})
	return bounds
}

// nnzBalancedBounds cuts rows so chunk c ends at the first row whose
// cumulative nonzero count reaches c/parts of the total. rowPtr is
// exactly that cumulative count, so each cut is one binary search.
func nnzBalancedBounds(rowPtr []int, parts int) []int {
	n := len(rowPtr) - 1
	nnz := rowPtr[n]
	bounds := make([]int, 1, parts+1)
	for c := 1; c < parts; c++ {
		target := int(int64(c) * int64(nnz) / int64(parts))
		r := sort.SearchInts(rowPtr, target)
		if r > n {
			r = n
		}
		if last := bounds[len(bounds)-1]; r <= last {
			r = last + 1
		}
		if r >= n {
			break
		}
		bounds = append(bounds, r)
	}
	return append(bounds, n)
}

// MulVecPool computes dst = A*x in parallel over the pool: on the
// cached tuned operator when there is one, else over the cached
// nnz-balanced row partition, or serially where the pool declines (see
// Pool.SpMVParts). The result is bitwise identical to MulVec:
// parallelism is across rows, and each row's accumulation order is
// unchanged.
func (m *CSR) MulVecPool(pool *Pool, dst, x []float64) {
	checkMul(m, dst, x)
	op, a := m.operands()
	if op != nil {
		PooledMulVec(op, pool, dst, x)
		return
	}
	parts := pool.SpMVParts(len(a.vals))
	if parts == 0 || !pool.CSRMulVec(m.RowPartition(parts), a.rowPtr, a.colIdx, a.vals, dst, x) {
		a.mulVec(dst, x)
	}
}

// MulVecs computes dsts[j] = A*xs[j] for every column: one column at a
// time on the cached tuned operator when there is one (the row loop's
// bits for finite x, see TuneMulVec), else in one pass over the row
// data, reading each row's (value, column) stream once per group of
// four columns instead of once per column. Each output column is
// bitwise identical to MulVec on the same input. dsts and xs must
// have equal length, with every vector of length Dim; no dst may alias
// any x.
func (m *CSR) MulVecs(dsts, xs [][]float64) {
	checkMulVecs(m, dsts, xs)
	if op, a := m.operands(); op != nil {
		PooledMulVecs(op, nil, dsts, xs)
	} else {
		vec.CSRMulVecsRows(a.rowPtr, a.colIdx, a.vals, dsts, xs, 0, m.n)
	}
}

// MulVecsPool computes dsts[j] = A*xs[j] in parallel over the pool —
// column by column on the cached tuned operator when there is one, else
// over the cached nnz-balanced row partition — with the same serial
// fallbacks and the same bitwise-identity guarantee as MulVecPool.
func (m *CSR) MulVecsPool(pool *Pool, dsts, xs [][]float64) {
	checkMulVecs(m, dsts, xs)
	op, a := m.operands()
	if op != nil {
		PooledMulVecs(op, pool, dsts, xs)
		return
	}
	parts := pool.SpMVParts(len(a.vals))
	if parts == 0 || !pool.CSRMulVecs(m.RowPartition(parts), a.rowPtr, a.colIdx, a.vals, dsts, xs) {
		vec.CSRMulVecsRows(a.rowPtr, a.colIdx, a.vals, dsts, xs, 0, m.n)
	}
}

// transpose returns the cached explicit transpose, building it on first
// use. It is never tuned, so its own arrays are never released.
func (m *CSR) transpose() *CSR {
	if t := m.tr.Load(); t != nil {
		return t
	}
	a := m.pin()
	tPtr, tIdx, tVals := transposeArrays(m.n, a.rowPtr, a.colIdx, a.vals)
	t := newCSR(m.n, tPtr, tIdx, tVals)
	m.tr.Store(t)
	return t
}

// MulVecT computes dst = Aᵀ*x from a cached explicit transpose.
func (m *CSR) MulVecT(dst, x []float64) {
	checkMulT("CSR.MulVecT", m.n, m.n, dst, x)
	m.transpose().MulVec(dst, x)
}

// MulVecTPool computes dst = Aᵀ*x over the pool — a race-free row-wise
// gather on the cached explicit transpose, bitwise identical to MulVecT.
func (m *CSR) MulVecTPool(pool *Pool, dst, x []float64) {
	checkMulT("CSR.MulVecTPool", m.n, m.n, dst, x)
	m.transpose().MulVecPool(pool, dst, x)
}

// Values returns the stored nonzero values in row-major CSR order. The
// slice is the matrix's backing storage, pinned (never released): treat
// it as read-only and use SetValues or Scale to mutate.
func (m *CSR) Values() []float64 { return m.pin().vals }

// SetValues replaces the stored values in place (structure unchanged);
// vals must have length NNZ. Cached derived state copies values: the
// tuned operator is invalidated, the explicit transpose rewritten in
// place. Like every mutator it needs exclusive access, and it pins the
// arrays.
func (m *CSR) SetValues(vals []float64) {
	a := m.pin()
	if len(vals) != len(a.vals) {
		panic(fmt.Sprintf("sparse: SetValues length %d, want %d", len(vals), len(a.vals)))
	}
	copy(a.vals, vals)
	m.valuesChanged(a)
}

// Scale multiplies every stored value by s in place, invalidating the
// cached tuned operator and rewriting the cached transpose's values.
func (m *CSR) Scale(s float64) {
	a := m.pin()
	for i := range a.vals {
		a.vals[i] *= s
	}
	m.valuesChanged(a)
}

// valuesChanged brings the value-derived caches up to date after a
// mutation of the pinned arrays a: the tuned operator is dropped (its
// format choice can depend on the values), the transpose keeps its
// structure and gets the new values — the scatter that built it, re-run
// in place.
func (m *CSR) valuesChanged(a *csrArrays) {
	m.tuned.Store(nil)
	if t := m.tr.Load(); t != nil {
		ta := t.arrays.Load()
		scatterTranspose(a.rowPtr, a.colIdx, a.vals, ta.rowPtr, nil, ta.vals)
	}
}

// CloneValues returns a matrix sharing this one's immutable structure
// (rowPtr/colIdx and the cached row partition) but owning a private copy
// of the values, so the clone can be mutated (SetValues, Scale) without
// affecting the original — the isolation a solve sequence needs over a
// shared stored operator. Both matrices' arrays are pinned.
func (m *CSR) CloneValues() *CSR {
	a := m.pin()
	c := &CSR{n: m.n}
	c.arrays.Store(&csrArrays{rowPtr: a.rowPtr, colIdx: a.colIdx, vals: slices.Clone(a.vals), pinned: true})
	if p := m.part.Load(); p != nil {
		c.part.Store(p)
	}
	return c
}

// IsSymmetric reports whether every stored entry (i,j) has a matching
// (j,i) entry equal within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	a := m.held()
	for i := 0; i < m.n; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			j := int(a.colIdx[p])
			if diff := a.vals[p] - a.at(j, i); diff > tol || diff < -tol {
				return false
			}
		}
	}
	return true
}

// IsDiagonallyDominant reports whether |a_ii| >= sum_{j!=i} |a_ij| for
// every row, a convenient sufficient condition when generating random
// SPD test matrices.
func (m *CSR) IsDiagonallyDominant() bool {
	a := m.held()
	for i := 0; i < m.n; i++ {
		var off, diag float64
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			v := a.vals[p]
			if v < 0 {
				v = -v
			}
			if int(a.colIdx[p]) == i {
				diag = v
			} else {
				off += v
			}
		}
		if diag < off {
			return false
		}
	}
	return true
}

// ToDense expands the matrix to dense form (intended for small n in tests).
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.n)
	a := m.held()
	for i := 0; i < m.n; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			d.Set(i, int(a.colIdx[p]), a.vals[p])
		}
	}
	return d
}

var (
	_ Matrix     = (*CSR)(nil)
	_ Sparse     = (*CSR)(nil)
	_ PoolMulVec = (*CSR)(nil)
)
