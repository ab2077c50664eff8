package sparse

import (
	"fmt"
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
	if n <= 0 {
		panic("sparse: NewCOO requires n > 0")
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
	csr := &CSR{n: c.n, rowPtr: rowPtr, colIdx: cols, vals: vals}
	csr.warmPartition()
	return csr
}

// assemble builds the CSR arrays of a matrix with the given number of
// rows from triplets (rs[k], cs[k], vs[k]), which it leaves untouched:
// duplicates summed, entries that sum to exactly zero dropped. Every
// triplet must lie inside the matrix; the column count is the caller's.
//
// The build is sort-based rather than map-based: a counting sort buckets
// entries by row in O(nnz), each row is put in column order by sortRow,
// and duplicates are merged in a single in-place compaction pass. A row
// whose entries were added in strictly ascending column order is not
// touched, and duplicates are summed in the order they always were.
func assemble(rows int, rs, cs []int, vs []float64) (rowPtr, cols []int, vals []float64) {
	nnz := len(vs)

	// Pass 1: counting sort by row.
	ptr := make([]int, rows+1)
	for _, i := range rs {
		ptr[i+1]++
	}
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	cols = make([]int, nnz)
	vals = make([]float64, nnz)
	cursor := make([]int, rows)
	copy(cursor, ptr[:rows])
	for k, i := range rs {
		p := cursor[i]
		cursor[i]++
		cols[p] = cs[k]
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
// with column indices sorted ascending within each row.
type CSR struct {
	n      int
	rowPtr []int
	colIdx []int
	vals   []float64

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

// NewCSR builds a CSR matrix directly from its raw arrays. The arrays are
// used without copying; rowPtr must have length n+1 and colIdx/vals must
// have length rowPtr[n]. Rows are sorted by column during construction
// (see sortRow): a row that is already sorted is not touched, and
// repeated columns keep the order they always did.
func NewCSR(n int, rowPtr, colIdx []int, vals []float64) *CSR {
	if len(rowPtr) != n+1 {
		panic(fmt.Sprintf("sparse: rowPtr length %d, want %d", len(rowPtr), n+1))
	}
	if len(colIdx) != rowPtr[n] || len(vals) != rowPtr[n] {
		panic("sparse: colIdx/vals length disagrees with rowPtr")
	}
	m := &CSR{n: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
	sortRows(rowPtr, colIdx, vals)
	m.warmPartition()
	return m
}

// sortRows puts every row of a CSR structure in column order.
func sortRows(rowPtr, colIdx []int, vals []float64) {
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
func sortRow(cols []int, vals []float64) {
	for i := 1; i < len(cols); i++ {
		if cols[i-1] >= cols[i] {
			sort.Sort(rowView{cols: cols, vals: vals})
			return
		}
	}
}

type rowView struct {
	cols []int
	vals []float64
}

func (r rowView) Len() int           { return len(r.cols) }
func (r rowView) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r rowView) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// Dim returns the order of the matrix.
func (m *CSR) Dim() int { return m.n }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.vals) }

// MaxRowNonzeros returns the maximum number of stored entries in any row
// (the paper's sparsity parameter d).
func (m *CSR) MaxRowNonzeros() int {
	maxNZ := 0
	for i := 0; i < m.n; i++ {
		if nz := m.rowPtr[i+1] - m.rowPtr[i]; nz > maxNZ {
			maxNZ = nz
		}
	}
	return maxNZ
}

// At returns A[i,j] (zero if the entry is not stored).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	cols := m.colIdx[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return m.vals[lo+k]
	}
	return 0
}

// ScanRow calls emit for every stored entry (column, value) of row i in
// ascending column order.
func (m *CSR) ScanRow(i int, emit func(j int, v float64)) {
	for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
		emit(m.colIdx[p], m.vals[p])
	}
}

// Diag extracts the diagonal into dst (length n). Missing diagonal
// entries are zero.
func (m *CSR) Diag(dst []float64) {
	if len(dst) != m.n {
		panic("sparse: Diag dimension mismatch")
	}
	for i := 0; i < m.n; i++ {
		dst[i] = m.At(i, i)
	}
}

// MulVec computes dst = A*x.
func (m *CSR) MulVec(dst, x []float64) {
	checkMul(m, dst, x)
	for i := 0; i < m.n; i++ {
		var s float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.vals[p] * x[m.colIdx[p]]
		}
		dst[i] = s
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
	bounds := nnzBalancedBounds(m.rowPtr, parts)
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

// MulVecPool computes dst = A*x in parallel over the pool using the
// cached nnz-balanced row partition, or serially where the pool declines
// (see Pool.SpMVParts). The result is bitwise identical to MulVec:
// parallelism is across rows, and each row's accumulation order is
// unchanged.
func (m *CSR) MulVecPool(pool *Pool, dst, x []float64) {
	checkMul(m, dst, x)
	parts := pool.SpMVParts(len(m.vals))
	if parts == 0 || !pool.CSRMulVec(m.RowPartition(parts), m.rowPtr, m.colIdx, m.vals, dst, x) {
		m.MulVec(dst, x)
	}
}

// MulVecs computes dsts[j] = A*xs[j] for every column in one pass over
// the row data, reading each row's (value, column) stream once per
// group of four columns instead of once per column. Each output column
// is bitwise identical to MulVec on the same input. dsts and xs must
// have equal length, with every vector of length Dim; no dst may alias
// any x.
func (m *CSR) MulVecs(dsts, xs [][]float64) {
	checkMulVecs(m, dsts, xs)
	vec.CSRMulVecsRows(m.rowPtr, m.colIdx, m.vals, dsts, xs, 0, m.n)
}

// MulVecsPool computes dsts[j] = A*xs[j] in parallel over the pool
// using the cached nnz-balanced row partition, with the same serial
// fallbacks and the same bitwise-identity guarantee as MulVecPool.
func (m *CSR) MulVecsPool(pool *Pool, dsts, xs [][]float64) {
	checkMulVecs(m, dsts, xs)
	parts := pool.SpMVParts(len(m.vals))
	if parts == 0 || !pool.CSRMulVecs(m.RowPartition(parts), m.rowPtr, m.colIdx, m.vals, dsts, xs) {
		vec.CSRMulVecsRows(m.rowPtr, m.colIdx, m.vals, dsts, xs, 0, m.n)
	}
}

// transpose returns the cached explicit transpose, building it on first
// use.
func (m *CSR) transpose() *CSR {
	if t := m.tr.Load(); t != nil {
		return t
	}
	tPtr, tIdx, tVals := transposeArrays(m.n, m.rowPtr, m.colIdx, m.vals)
	t := &CSR{n: m.n, rowPtr: tPtr, colIdx: tIdx, vals: tVals}
	t.warmPartition()
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
// slice is the matrix's backing storage: treat it as read-only and use
// SetValues or Scale to mutate.
func (m *CSR) Values() []float64 { return m.vals }

// SetValues replaces the stored values in place (structure unchanged);
// vals must have length NNZ. Cached derived state copies values: the
// tuned operator is invalidated, the explicit transpose rewritten in
// place. Like every mutator it needs exclusive access.
func (m *CSR) SetValues(vals []float64) {
	if len(vals) != len(m.vals) {
		panic(fmt.Sprintf("sparse: SetValues length %d, want %d", len(vals), len(m.vals)))
	}
	copy(m.vals, vals)
	m.valuesChanged()
}

// Scale multiplies every stored value by s in place, invalidating the
// cached tuned operator and rewriting the cached transpose's values.
func (m *CSR) Scale(s float64) {
	for i := range m.vals {
		m.vals[i] *= s
	}
	m.valuesChanged()
}

// valuesChanged brings the value-derived caches up to date after a
// mutation: the tuned operator is dropped (its format choice can depend
// on the values), the transpose keeps its structure and gets the new
// values — the scatter that built it, re-run in place.
func (m *CSR) valuesChanged() {
	m.tuned.Store(nil)
	if t := m.tr.Load(); t != nil {
		scatterTranspose(m.rowPtr, m.colIdx, m.vals, t.rowPtr, nil, t.vals)
	}
}

// CloneValues returns a matrix sharing this one's immutable structure
// (rowPtr/colIdx and the cached row partition) but owning a private copy
// of the values, so the clone can be mutated (SetValues, Scale) without
// affecting the original — the isolation a solve sequence needs over a
// shared stored operator.
func (m *CSR) CloneValues() *CSR {
	vals := make([]float64, len(m.vals))
	copy(vals, m.vals)
	c := &CSR{n: m.n, rowPtr: m.rowPtr, colIdx: m.colIdx, vals: vals}
	if p := m.part.Load(); p != nil {
		c.part.Store(p)
	}
	return c
}

// IsSymmetric reports whether every stored entry (i,j) has a matching
// (j,i) entry equal within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	for i := 0; i < m.n; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			j := m.colIdx[p]
			if diff := m.vals[p] - m.At(j, i); diff > tol || diff < -tol {
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
	for i := 0; i < m.n; i++ {
		var off, diag float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			v := m.vals[p]
			if v < 0 {
				v = -v
			}
			if m.colIdx[p] == i {
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
	for i := 0; i < m.n; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			d.Set(i, m.colIdx[p], m.vals[p])
		}
	}
	return d
}

var (
	_ Matrix     = (*CSR)(nil)
	_ Sparse     = (*CSR)(nil)
	_ PoolMulVec = (*CSR)(nil)
)
