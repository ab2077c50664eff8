package sparse

import (
	"fmt"
	"math"
	"sync/atomic"

	"vrcg/internal/vec"
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
// parallel transpose product (CSR and a sparse Rect serve it from a
// cached explicit transpose, so the parallel kernel is a race-free
// row-wise gather, not a scattered accumulation; a dense Rect runs
// its serial product).
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
// A Rect is dense when it has at most eight columns and every row
// stores every column, in order: rowPtr[i] = cols·i and row i lists
// columns 0…cols−1 — an m×6 point-to-plane Jacobian, say. Construction
// decides it in one pass over the structure, and a dense Rect multiplies
// its values as row-major dense rows: MulVec takes each row as a
// unit-stride sum, and MulVecT walks the rows once, keeping one running
// sum per column. It never builds a transpose. The bits are the
// sparse path's for every input, non-finite ones included (a NaN's
// payload aside, which depends on operand order that neither path
// defines): each sum starts from +0 and adds v·x term by term in the
// order the CSR loop (for Aᵀx, the explicit transpose's row) adds them.
//
// A sparse Rect serves the transpose product from a lazily built,
// atomically cached explicit transpose, whose values the value-mutating
// methods (Scale, SetValues) rewrite in place. Structure
// (rowPtr/colIdx) is immutable after construction, which is what lets
// CloneValues share it between a stored operator and the privately
// mutable copy a solve sequence owns.
type Rect struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int32
	vals       []float64

	// dense says every row stores every column in order (see Rect);
	// rowKernel is then its product over a range of rows, bound once so
	// that a pooled dispatch allocates nothing.
	dense     bool
	rowKernel vec.RowKernel

	// part caches the nnz-balanced row partition for MulVecPool.
	part atomic.Pointer[rowPartition]
	// tr caches a sparse Rect's explicit transpose for
	// MulVecT/MulVecTPool.
	tr atomic.Pointer[Rect]
}

// newRect is the constructor every Rect but a clone goes through
// (CloneValues copies the answer): it decides whether the structure is
// dense.
func newRect(rows, cols int, rowPtr []int, colIdx []int32, vals []float64) *Rect {
	m := &Rect{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
	m.dense = denseStructure(cols, rowPtr, colIdx)
	m.bindKernels()
	return m
}

// denseStructure reports whether every row lists every one of cols
// columns, in order, and cols is at most maxDenseCols.
func denseStructure(cols int, rowPtr []int, colIdx []int32) bool {
	rows := len(rowPtr) - 1
	if cols > maxDenseCols || len(colIdx) != rows*cols {
		return false
	}
	for i := 0; i <= rows; i++ {
		if rowPtr[i] != i*cols {
			return false
		}
	}
	for p := 0; p < len(colIdx); p += cols {
		for j, c := range colIdx[p : p+cols] {
			if int(c) != j {
				return false
			}
		}
	}
	return true
}

// bindKernels caches a dense Rect's row-range kernel (see Rect.rowKernel).
func (m *Rect) bindKernels() {
	if m.dense {
		m.rowKernel = func(lo, hi int, dst, x vec.Vector) { denseRowSums(m.vals, m.cols, lo, hi, dst, x) }
	}
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
	return newRect(rows, cols, rowPtr, idx, vals)
}

// RectFromDense builds a Rect from a row-major rows×cols dense array,
// dropping exact zeros (so the Rect is dense — see Rect — exactly when
// no entry is zero). Convenient for the small dense Jacobians of
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
	if m.dense {
		denseRowSums(m.vals, m.cols, 0, m.rows, dst, x)
		return
	}
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
	if parts == 0 {
		m.MulVec(dst, x)
		return
	}
	bounds := m.rowBounds(parts)
	if m.dense {
		if !pool.RowMulVecBounds(bounds, dst, x, m.rowKernel) {
			m.MulVec(dst, x)
		}
		return
	}
	if !pool.CSRMulVec(bounds, m.rowPtr, m.colIdx, m.vals, dst, x) {
		m.MulVec(dst, x)
	}
}

// denseRowSums computes rows [lo, hi) of dst = A*x for the row-major
// rows of a dense Rect. x stays in registers; each row's sum starts
// from +0 and adds its products in column order, as the CSR loop does.
func denseRowSums(vals []float64, cols, lo, hi int, dst, x []float64) {
	var xr [maxDenseCols]float64
	copy(xr[:], x)
	x0, x1, x2, x3, x4, x5, x6, x7 := xr[0], xr[1], xr[2], xr[3], xr[4], xr[5], xr[6], xr[7]
	for i := lo; i < hi; i++ {
		row := vals[i*cols : i*cols+cols]
		s := 0.0
		s += row[0] * x0
		if cols > 1 {
			s += row[1] * x1
		}
		if cols > 2 {
			s += row[2] * x2
		}
		if cols > 3 {
			s += row[3] * x3
		}
		if cols > 4 {
			s += row[4] * x4
		}
		if cols > 5 {
			s += row[5] * x5
		}
		if cols > 6 {
			s += row[6] * x6
		}
		if cols > 7 {
			s += row[7] * x7
		}
		dst[i] = s
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
	t := newRect(m.cols, m.rows, tPtr, tIdx, tVals)
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
	if m.dense {
		denseColumnSums(m.vals, m.cols, dst, x)
		return
	}
	m.transpose().MulVec(dst, x)
}

// MulVecTPool computes dst = Aᵀ*x over the pool: a dense Rect runs its
// serial product, whose one pass over the rows holds every column's
// sum; a sparse one runs a race-free row-wise gather on the cached
// explicit transpose.
func (m *Rect) MulVecTPool(pool *Pool, dst, x []float64) {
	checkMulT("Rect.MulVecTPool", m.rows, m.cols, dst, x)
	if m.dense {
		denseColumnSums(m.vals, m.cols, dst, x)
		return
	}
	m.transpose().MulVecPool(pool, dst, x)
}

// maxDenseCols is the widest dense Rect: denseColumnSums keeps one sum
// per column in registers, and denseRowSums holds x in them.
const maxDenseCols = 8

// denseColumnSums computes dst = Aᵀ*x for the row-major rows of a dense
// Rect, in one pass over the rows. Each column keeps its own running sum
// from +0 and adds its products in row order — the transpose row's sum,
// term for term — so the sums are independent chains where the
// transpose has one chain per column.
//
// While a whole maxDenseCols-wide window fits inside vals, the window is
// read whether or not the Rect is that wide: a narrower Rect's extra
// lanes read the next row's leading values into sums that are never
// stored. The last rows, where the window would run off the end, add
// only the Rect's own columns.
func denseColumnSums(vals []float64, cols int, dst, x []float64) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	i, p := 0, 0
	for ; i < len(x) && p+maxDenseCols <= len(vals); i, p = i+1, p+cols {
		xi, win := x[i], vals[p:p+maxDenseCols:p+maxDenseCols]
		a0 += win[0] * xi
		a1 += win[1] * xi
		a2 += win[2] * xi
		a3 += win[3] * xi
		a4 += win[4] * xi
		a5 += win[5] * xi
		a6 += win[6] * xi
		a7 += win[7] * xi
	}
	sums := [maxDenseCols]float64{a0, a1, a2, a3, a4, a5, a6, a7}
	for ; i < len(x); i, p = i+1, p+cols {
		for j, v := range vals[p : p+cols] {
			sums[j] += v * x[i]
		}
	}
	copy(dst, sums[:cols])
}

// Values returns the stored nonzero values in row-major CSR order. The
// slice is the matrix's backing storage: treat it as read-only and use
// SetValues or Scale to mutate.
func (m *Rect) Values() []float64 { return m.vals }

// SetValues replaces the stored values in place (structure unchanged);
// vals must have length NNZ. A cached explicit transpose gets the new
// values too, in place (a dense Rect has none, so this is a copy). Like
// every mutator it needs exclusive access.
func (m *Rect) SetValues(vals []float64) {
	if len(vals) != len(m.vals) {
		panic(fmt.Sprintf("sparse: SetValues length %d, want %d", len(vals), len(m.vals)))
	}
	copy(m.vals, vals)
	m.refreshTranspose()
}

// Scale multiplies every stored value by s in place, and a cached
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
	c := &Rect{rows: m.rows, cols: m.cols, rowPtr: m.rowPtr, colIdx: m.colIdx, vals: vals, dense: m.dense}
	c.bindKernels()
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
