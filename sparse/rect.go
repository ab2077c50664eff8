package sparse

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Shaped is a Matrix that may be rectangular. Dim returns the row count
// for Shaped operators (so row-space length checks keep working through
// square-only call sites); Rows and Cols report the true shape.
type Shaped interface {
	Matrix
	// Rows returns the number of rows (the length of MulVec's dst).
	Rows() int
	// Cols returns the number of columns (the length of MulVec's x).
	Cols() int
}

// Dims returns the (rows, cols) shape of an operator: the declared shape
// for Shaped operators, (Dim, Dim) otherwise.
func Dims(a Matrix) (rows, cols int) {
	if s, ok := a.(Shaped); ok {
		return s.Rows(), s.Cols()
	}
	n := a.Dim()
	return n, n
}

// TransposeMulVec is a Matrix that can also apply its transpose. The
// normal-equations methods (cgnr, lsqr) require it: they iterate on
// AᵀA x = Aᵀb without ever forming the product matrix.
type TransposeMulVec interface {
	Matrix
	// MulVecT computes dst = Aᵀ*x. dst has the column count, x the row
	// count; they must not alias.
	MulVecT(dst, x []float64)
}

// PoolMulVecT is a TransposeMulVec that also offers a worker-pool
// parallel transpose product (CSR and Rect serve it from a cached
// explicit transpose, so the parallel kernel is a race-free row-wise
// gather, not a scattered accumulation).
type PoolMulVecT interface {
	TransposeMulVec
	// MulVecTPool computes dst = Aᵀ*x over the pool, falling back to
	// the serial product when parallelism is not profitable.
	MulVecTPool(pool *Pool, dst, x []float64)
}

// PooledMulVecT computes dst = aᵀ*x through the pool when the operator
// supports it (and pool is non-nil), and serially otherwise. It is the
// single dispatch point the least-squares solver hot paths use.
func PooledMulVecT(a TransposeMulVec, pool *Pool, dst, x []float64) {
	if pool != nil {
		if pm, ok := a.(PoolMulVecT); ok {
			pm.MulVecTPool(pool, dst, x)
			return
		}
	}
	a.MulVecT(dst, x)
}

// transposeArrays builds the CSR arrays of the transpose of a CSR
// structure with cols columns via a counting sort over columns.
// Traversing the source row-major leaves each transposed row's indices
// already sorted.
func transposeArrays(cols int, rowPtr []int, colIdx []int32, vals []float64) (tPtr []int, tIdx []int32, tVals []float64) {
	nnz := len(vals)
	tPtr = make([]int, cols+1)
	for _, j := range colIdx {
		tPtr[j+1]++
	}
	for j := 0; j < cols; j++ {
		tPtr[j+1] += tPtr[j]
	}
	tIdx = make([]int32, nnz)
	tVals = make([]float64, nnz)
	scatterTranspose(rowPtr, colIdx, vals, tPtr, tIdx, tVals)
	return tPtr, tIdx, tVals
}

// scatterTranspose is the scatter pass of the counting sort: source
// entry p of column j lands in the next free slot of transposed row j.
// It writes tVals and, when tIdx is non-nil, the row indices — so a
// value update re-runs exactly the pass that built the transpose, over
// the structure it already has, and allocates nothing: tPtr is its own
// cursor. Each tPtr[j] ends the pass holding tPtr[j+1], and is shifted
// back. The caller must own the transpose exclusively meanwhile.
func scatterTranspose(rowPtr []int, colIdx []int32, vals []float64, tPtr []int, tIdx []int32, tVals []float64) {
	for i := 0; i+1 < len(rowPtr); i++ {
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			j := colIdx[p]
			q := tPtr[j]
			tPtr[j] = q + 1
			if tIdx != nil {
				tIdx[q] = int32(i)
			}
			tVals[q] = vals[p]
		}
	}
	copy(tPtr[1:], tPtr)
	tPtr[0] = 0
}

// Rect is a rectangular rows×cols compressed-sparse-row matrix — the
// operator type of the least-squares tier (cgnr, lsqr). Storage follows
// CSR exactly, 32-bit column indices included (so both dimensions are
// at most math.MaxInt32: the rows are the transpose's columns); Dim
// returns the row count, so row-space length checks written against
// square operators stay correct.
//
// The transpose product is served from a lazily built, atomically cached
// explicit transpose, whose values the value-mutating methods (Scale,
// SetValues) rewrite in place. Structure (rowPtr/colIdx) is immutable after
// construction, which is what lets CloneValues share it between a stored
// operator and the privately mutable copy a solve sequence owns.
type Rect struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int32
	vals       []float64

	// part caches the nnz-balanced row partition for MulVecPool.
	part atomic.Pointer[rowPartition]
	// tr caches the explicit transpose for MulVecT/MulVecTPool.
	tr atomic.Pointer[Rect]
}

// NewRect builds a rectangular CSR matrix from raw arrays. rowPtr and
// vals are used without copying; the column indices are copied once into
// the matrix's own 32-bit array, so colIdx is left as it was and may be
// reused. rowPtr must have length rows+1, colIdx/vals length
// rowPtr[rows], every column index must lie in [0, cols), and neither
// dimension may pass math.MaxInt32. Rows are sorted by column during
// construction, as NewCSR sorts them: a row that is already sorted is
// not touched, and repeated columns keep the order they always did.
func NewRect(rows, cols int, rowPtr, colIdx []int, vals []float64) *Rect {
	if rows <= 0 || cols <= 0 || rows > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: NewRect requires 0 < rows <= %d and cols > 0, got %dx%d", math.MaxInt32, rows, cols))
	}
	idx := columns32("NewRect", cols, colIdx)
	if len(rowPtr) != rows+1 {
		panic(fmt.Sprintf("sparse: rowPtr length %d, want %d", len(rowPtr), rows+1))
	}
	if len(colIdx) != rowPtr[rows] || len(vals) != rowPtr[rows] {
		panic("sparse: colIdx/vals length disagrees with rowPtr")
	}
	sortRows(rowPtr, idx, vals)
	return &Rect{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: idx, vals: vals}
}

// RectFromDense builds a Rect from a row-major rows×cols dense array,
// dropping exact zeros. Convenient for the small dense Jacobians of
// registration problems (m×6 point-to-plane ICP blocks).
func RectFromDense(rows, cols int, data []float64) *Rect {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("sparse: RectFromDense data length %d, want %d", len(data), rows*cols))
	}
	rowPtr := make([]int, rows+1)
	var colIdx []int
	var vals []float64
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := data[i*cols+j]; v != 0 {
				colIdx = append(colIdx, j)
				vals = append(vals, v)
			}
		}
		rowPtr[i+1] = len(vals)
	}
	return NewRect(rows, cols, rowPtr, colIdx, vals)
}

// Dim returns the row count (see Shaped).
func (m *Rect) Dim() int { return m.rows }

// Rows returns the number of rows.
func (m *Rect) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Rect) Cols() int { return m.cols }

// NNZ returns the number of stored nonzeros.
func (m *Rect) NNZ() int { return len(m.vals) }

// MaxRowNonzeros returns the maximum number of stored entries in any row.
func (m *Rect) MaxRowNonzeros() int {
	maxNZ := 0
	for i := 0; i < m.rows; i++ {
		if nz := m.rowPtr[i+1] - m.rowPtr[i]; nz > maxNZ {
			maxNZ = nz
		}
	}
	return maxNZ
}

// At returns A[i,j] (zero if the entry is not stored).
func (m *Rect) At(i, j int) float64 {
	for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
		if int(m.colIdx[p]) == j {
			return m.vals[p]
		}
	}
	return 0
}

func (m *Rect) checkMul(dst, x []float64) {
	if len(dst) != m.rows || len(x) != m.cols {
		panic(fmt.Sprintf("sparse: Rect.MulVec dimension mismatch: A is %dx%d, dst %d, x %d",
			m.rows, m.cols, len(dst), len(x)))
	}
}

// MulVec computes dst = A*x (dst length rows, x length cols).
func (m *Rect) MulVec(dst, x []float64) {
	m.checkMul(dst, x)
	for i := 0; i < m.rows; i++ {
		var s float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.vals[p] * x[m.colIdx[p]]
		}
		dst[i] = s
	}
}

// MulVecPool computes dst = A*x over the pool using an nnz-balanced row
// partition, bitwise identical to MulVec (see CSR.MulVecPool).
func (m *Rect) MulVecPool(pool *Pool, dst, x []float64) {
	m.checkMul(dst, x)
	parts := pool.SpMVParts(len(m.vals))
	if parts == 0 || !pool.CSRMulVec(m.rowBounds(parts), m.rowPtr, m.colIdx, m.vals, dst, x) {
		m.MulVec(dst, x)
	}
}

// RowPartition returns (and caches) the nnz-balanced row chunk
// boundaries parallel products use — the same contract as
// CSR.RowPartition, so servers can pre-warm either shape on upload.
func (m *Rect) RowPartition(parts int) []int { return m.rowBounds(parts) }

func (m *Rect) rowBounds(parts int) []int {
	if parts < 1 {
		parts = 1
	}
	if parts > m.rows {
		parts = m.rows
	}
	if cached := m.part.Load(); cached != nil && cached.parts == parts {
		return cached.bounds
	}
	bounds := nnzBalancedBounds(m.rowPtr, parts)
	m.part.Store(&rowPartition{parts: parts, bounds: bounds})
	return bounds
}

// transpose returns the cached explicit transpose, building it on first
// use.
func (m *Rect) transpose() *Rect {
	if t := m.tr.Load(); t != nil {
		return t
	}
	tPtr, tIdx, tVals := transposeArrays(m.cols, m.rowPtr, m.colIdx, m.vals)
	t := &Rect{rows: m.cols, cols: m.rows, rowPtr: tPtr, colIdx: tIdx, vals: tVals}
	m.tr.Store(t)
	return t
}

// checkMulT panics unless dst has A's column count and x its row count —
// before a transpose product builds the transpose it would run on.
func checkMulT(method string, rows, cols int, dst, x []float64) {
	if len(dst) != cols || len(x) != rows {
		panic(fmt.Sprintf("sparse: %s dimension mismatch: A is %dx%d, dst %d, x %d",
			method, rows, cols, len(dst), len(x)))
	}
}

// MulVecT computes dst = Aᵀ*x (dst length cols, x length rows).
func (m *Rect) MulVecT(dst, x []float64) {
	checkMulT("Rect.MulVecT", m.rows, m.cols, dst, x)
	m.transpose().MulVec(dst, x)
}

// MulVecTPool computes dst = Aᵀ*x over the pool, a race-free row-wise
// gather on the cached explicit transpose.
func (m *Rect) MulVecTPool(pool *Pool, dst, x []float64) {
	checkMulT("Rect.MulVecTPool", m.rows, m.cols, dst, x)
	m.transpose().MulVecPool(pool, dst, x)
}

// Values returns the stored nonzero values in row-major CSR order. The
// slice is the matrix's backing storage: treat it as read-only and use
// SetValues or Scale to mutate.
func (m *Rect) Values() []float64 { return m.vals }

// SetValues replaces the stored values in place (structure unchanged);
// vals must have length NNZ. A cached explicit transpose gets the new
// values too, in place. Like every mutator it needs exclusive access.
func (m *Rect) SetValues(vals []float64) {
	if len(vals) != len(m.vals) {
		panic(fmt.Sprintf("sparse: SetValues length %d, want %d", len(vals), len(m.vals)))
	}
	copy(m.vals, vals)
	m.refreshTranspose()
}

// Scale multiplies every stored value by s in place, and the cached
// transpose's with them.
func (m *Rect) Scale(s float64) {
	for i := range m.vals {
		m.vals[i] *= s
	}
	m.refreshTranspose()
}

// refreshTranspose carries a value update into the cached transpose:
// the structure is immutable, so only its values are rewritten — what a
// rebuild would produce, without reallocating three nnz-sized arrays
// per update.
func (m *Rect) refreshTranspose() {
	if t := m.tr.Load(); t != nil {
		scatterTranspose(m.rowPtr, m.colIdx, m.vals, t.rowPtr, nil, t.vals)
	}
}

// CloneValues returns a matrix sharing this one's immutable structure
// (rowPtr/colIdx and the cached row partition) but owning a private copy
// of the values, so the clone can be mutated (SetValues, Scale) without
// affecting the original — the isolation a solve sequence needs over a
// shared stored operator.
func (m *Rect) CloneValues() *Rect {
	vals := make([]float64, len(m.vals))
	copy(vals, m.vals)
	c := &Rect{rows: m.rows, cols: m.cols, rowPtr: m.rowPtr, colIdx: m.colIdx, vals: vals}
	if p := m.part.Load(); p != nil {
		c.part.Store(p)
	}
	return c
}

// ToDense expands the matrix into a row-major dense array (tests only).
func (m *Rect) ToDense() []float64 {
	data := make([]float64, m.rows*m.cols)
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			data[i*m.cols+int(m.colIdx[p])] = m.vals[p]
		}
	}
	return data
}

var (
	_ Matrix          = (*Rect)(nil)
	_ Sparse          = (*Rect)(nil)
	_ Shaped          = (*Rect)(nil)
	_ PoolMulVec      = (*Rect)(nil)
	_ TransposeMulVec = (*Rect)(nil)
	_ PoolMulVecT     = (*Rect)(nil)
	_ TransposeMulVec = (*CSR)(nil)
	_ PoolMulVecT     = (*CSR)(nil)
	_ TransposeMulVec = (*Dense)(nil)
)
