package sparse

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"vrcg/internal/vec"
)

// SellC is the SELL chunk height: the number of consecutive row slots
// stored column-major in each chunk. It matches the 4-way accumulator
// unrolling of the vec kernels, so one chunk's lanes are four
// independent dependency chains the CPU overlaps (gc does not
// vectorize them).
const SellC = 4

// DefaultSellSigma is the default sorting-window height (in row slots)
// for CSR→SELL conversion: large enough that skewed row lengths pack
// into mostly-full chunks, small enough that the row permutation stays
// local and x-access locality survives.
const DefaultSellSigma = 128

// SELL is a cache-blocked sparse format (SELL-C-σ): rows are grouped
// into chunks of SellC consecutive slots, each chunk is stored
// column-major and padded to the length of its longest row, and within
// every σ-row window the rows are sorted by descending length (stable,
// so equal-length rows keep matrix order) before being assigned to
// slots. Sorting keeps chunk-mates similar in length, which bounds
// padding even for skewed row-length distributions; the column-major
// chunk layout turns the per-chunk kernel into SellC independent
// accumulator chains with unit-stride value/column loads. Column
// indices are 32-bit, as in the CSR it is built from.
//
// Each row's entries keep their CSR (ascending-column) order, and chunk
// padding contributes terms of exactly +0.0, so MulVec is bitwise
// identical to CSR.MulVec for finite inputs. (Rows whose sum is -0.0
// and non-finite x entries — where 0·±Inf produces NaN in a padded
// lane — are the documented exceptions; CG iterates never hit either.)
//
// Construct with NewSELL or CSR.ToSELL; TuneMulVec picks the format
// automatically for large matrices that are not banded (those run on
// DIA, under the same contract).
type SELL struct {
	n        int
	sigma    int
	nnz      int     // structural nonzeros (excludes padding)
	maxRow   int     // longest row (the paper's sparsity parameter d)
	perm     []int32 // slot -> original row; -1 marks a padding slot
	chunkPtr []int   // chunk c occupies vals[chunkPtr[c]:chunkPtr[c+1]]
	cols     []int32
	vals     []float64

	// part caches the most recent nnz-balanced chunk partition, and
	// kernel the RowKernel method value, so pooled dispatch is
	// allocation-free (see MulVecPool).
	part   atomic.Pointer[rowPartition]
	kernel vec.RowKernel
}

// ToSELL converts the matrix to SELL-C-σ form with the default sorting
// window.
func (m *CSR) ToSELL() *SELL { return NewSELL(m, DefaultSellSigma) }

// NewSELL converts a CSR matrix to SELL-C-σ form with the given sorting
// window (rows; rounded up to a multiple of SellC, non-positive means
// DefaultSellSigma). The conversion is O(nnz + n log σ) and the result
// shares no storage with the source, whose arrays it pins (see CSR). It
// panics if the padded entry count would overflow the 32-bit column
// indices; TuneMulVec screens for that instead of panicking.
func NewSELL(m *CSR, sigma int) *SELL { return newSELL(m.pin(), sigma) }

// newSELL is NewSELL over a CSR's arrays.
func newSELL(m *csrArrays, sigma int) *SELL {
	if sigma <= 0 {
		sigma = DefaultSellSigma
	}
	sigma = (sigma + SellC - 1) / SellC * SellC
	n := len(m.rowPtr) - 1
	nslots := (n + SellC - 1) / SellC * SellC
	nchunks := nslots / SellC

	// Slot assignment: within each σ-window, order rows by descending
	// length, stable on row index.
	perm := make([]int32, nslots)
	for s := range perm {
		perm[s] = -1
	}
	rowLen := func(i int32) int { return m.rowPtr[i+1] - m.rowPtr[i] }
	for w0 := 0; w0 < n; w0 += sigma {
		w1 := w0 + sigma
		if w1 > n {
			w1 = n
		}
		win := perm[w0:w1]
		for k := range win {
			win[k] = int32(w0 + k)
		}
		sort.SliceStable(win, func(a, b int) bool { return rowLen(win[a]) > rowLen(win[b]) })
	}

	// Chunk extents, then the column-major fill.
	chunkPtr := make([]int, nchunks+1)
	padded := 0
	for c := 0; c < nchunks; c++ {
		width := 0
		for lane := 0; lane < SellC; lane++ {
			if row := perm[c*SellC+lane]; row >= 0 {
				if l := rowLen(row); l > width {
					width = l
				}
			}
		}
		padded += width * SellC
		chunkPtr[c+1] = padded
	}
	if padded > math.MaxInt32 {
		panic("sparse: NewSELL padded entry count overflows int32 indices")
	}
	cols := make([]int32, padded) // zero value = padding column 0
	vals := make([]float64, padded)
	for c := 0; c < nchunks; c++ {
		off := chunkPtr[c]
		for lane := 0; lane < SellC; lane++ {
			row := perm[c*SellC+lane]
			if row < 0 {
				continue
			}
			lo := m.rowPtr[row]
			for t := 0; t < rowLen(row); t++ {
				cols[off+t*SellC+lane] = m.colIdx[lo+t]
				vals[off+t*SellC+lane] = m.vals[lo+t]
			}
		}
	}

	s := &SELL{
		n: n, sigma: sigma, nnz: len(m.vals), maxRow: m.maxRow(),
		perm: perm, chunkPtr: chunkPtr, cols: cols, vals: vals,
	}
	s.kernel = s.mulChunks
	return s
}

// Dim returns the order of the matrix.
func (s *SELL) Dim() int { return s.n }

// NNZ returns the number of structural nonzeros (padding excluded).
func (s *SELL) NNZ() int { return s.nnz }

// MaxRowNonzeros returns the maximum number of stored entries in any row.
func (s *SELL) MaxRowNonzeros() int { return s.maxRow }

// PaddedNNZ returns the stored entry count including chunk padding.
func (s *SELL) PaddedNNZ() int { return len(s.vals) }

// PaddingRatio returns the fraction of stored entries that are padding —
// the storage and bandwidth overhead this matrix pays for the blocked
// layout.
func (s *SELL) PaddingRatio() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return float64(len(s.vals)-s.nnz) / float64(len(s.vals))
}

// Sigma returns the sorting-window height the matrix was built with.
func (s *SELL) Sigma() int { return s.sigma }

// mulChunks computes the chunk range [c0, c1) of dst = A*x: the SELL
// inner kernel and the RowKernel used by the pooled product. Writes go
// through perm, so distinct chunk ranges write disjoint dst elements.
func (s *SELL) mulChunks(c0, c1 int, dst, x []float64) {
	cols, vals := s.cols, s.vals
	for c := c0; c < c1; c++ {
		off := s.chunkPtr[c]
		end := s.chunkPtr[c+1]
		var a0, a1, a2, a3 float64
		for q := off; q < end; q += SellC {
			a0 += vals[q] * x[cols[q]]
			a1 += vals[q+1] * x[cols[q+1]]
			a2 += vals[q+2] * x[cols[q+2]]
			a3 += vals[q+3] * x[cols[q+3]]
		}
		base := c * SellC
		if r := s.perm[base]; r >= 0 {
			dst[r] = a0
		}
		if r := s.perm[base+1]; r >= 0 {
			dst[r] = a1
		}
		if r := s.perm[base+2]; r >= 0 {
			dst[r] = a2
		}
		if r := s.perm[base+3]; r >= 0 {
			dst[r] = a3
		}
	}
}

// MulVec computes dst = A*x, bitwise identical to the source CSR's
// MulVec for finite inputs (see the type comment for the exceptions).
func (s *SELL) MulVec(dst, x []float64) {
	checkMul(s, dst, x)
	s.mulChunks(0, len(s.chunkPtr)-1, dst, x)
}

// ChunkPartition returns boundaries splitting the chunks into at most
// parts contiguous ranges of near-equal stored-entry count (padding
// included — it costs the same bandwidth as real entries). The most
// recent partition is cached on the matrix.
func (s *SELL) ChunkPartition(parts int) []int {
	nchunks := len(s.chunkPtr) - 1
	if parts < 1 {
		parts = 1
	}
	if parts > nchunks {
		parts = nchunks
	}
	if cached := s.part.Load(); cached != nil && cached.parts == parts {
		return cached.bounds
	}
	bounds := nnzBalancedBounds(s.chunkPtr, parts)
	s.part.Store(&rowPartition{parts: parts, bounds: bounds})
	return bounds
}

// MulVecPool computes dst = A*x in parallel over the pool using the
// cached entry-balanced chunk partition, falling back to the serial
// MulVec when parallelism is not profitable. Chunk ranges write
// disjoint dst rows (perm is a bijection on real slots), so the result
// is bitwise identical to MulVec at any worker count.
func (s *SELL) MulVecPool(pool *Pool, dst, x []float64) {
	checkMul(s, dst, x)
	parts := pool.SpMVParts(len(s.vals))
	if parts == 0 || !pool.RowMulVecBounds(s.ChunkPartition(parts), dst, x, s.kernel) {
		s.MulVec(dst, x)
	}
}

// At returns A[i,j] (zero if not stored). It scans row i's lane and is
// intended for tests, not hot paths.
func (s *SELL) At(i, j int) float64 {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		panic(fmt.Sprintf("sparse: SELL.At index (%d,%d) out of range for n=%d", i, j, s.n))
	}
	for slot, row := range s.perm {
		if int(row) != i {
			continue
		}
		c, lane := slot/SellC, slot%SellC
		for q := s.chunkPtr[c] + lane; q < s.chunkPtr[c+1]; q += SellC {
			if int(s.cols[q]) == j && s.vals[q] != 0 {
				return s.vals[q]
			}
		}
		return 0
	}
	return 0
}

// tunedOp caches a TuneMulVec decision on the source CSR. A nil op
// records "evaluated: neither DIA nor SELL applies, keep CSR".
type tunedOp struct{ op Matrix }

// sellMinDim is the smallest matrix order TuneMulVec will convert to
// SELL: below it SpMV is cheap enough that the O(n log σ) conversion
// and the extra format can't pay for themselves. (The DIA conversion
// is one O(nnz) pass and has no floor.)
const sellMinDim = 2048

// sellMaxPadding is the largest padding ratio TuneMulVec accepts, of
// SELL chunk padding and of holes in a DIA band alike. Padding costs
// bandwidth exactly like real entries, so beyond ~25% overhead the
// regular layout's gains are eaten by the extra traffic and CSR stays
// the better format. A DIA band is judged as the logical band, every
// diagonal at full length, whether or not it then folds onto half of
// them: folding removes holes and entries in the same proportion.
const sellMaxPadding = 0.25

// TuneMulVec returns the fastest available operator equivalent to a.
// For a CSR matrix it decides once, caches the answer on the matrix
// (SetValues and Scale drop it), and never holds two tuned forms:
//
//  1. banded (a few distinct diagonals, few holes in the logical band;
//     any size) → DIA, whose row-fused kernel reads no column indices
//     at all, and which stores a symmetric band's diagonals k >= 0 only;
//  2. else large and paddable → SELL-C-σ;
//  3. else the CSR itself.
//
// Every other operator is returned unchanged. The engine calls this on
// entry to Solve, so all registry methods — including warm zero-alloc
// sessions, which hit the cache — run their SpMV on the format that
// wins. DIA and SELL share one contract: MulVec and MulVecPool are
// bitwise identical to the source CSR's for finite x (see the type
// comments), so tuning never changes results, and once a decision is
// cached the CSR's own products run on it.
//
// A DIA that reproduces the CSR — no stored value compares equal to
// zero — becomes its storage: the CSR releases its arrays, runs its
// products on the band and reads its counts from it, until a method
// that needs the arrays rebuilds and pins them (see CSR). Two
// first calls at once may each build a form; the first to publish wins,
// the other returns the winner's, and only the winner releases.
func TuneMulVec(a Matrix) Matrix {
	m, ok := a.(*CSR)
	if !ok {
		return a
	}
	t := m.tuned.Load()
	if t == nil {
		t = m.tune()
	}
	if t.op != nil {
		return t.op
	}
	return a
}

// tune makes the TuneMulVec decision over m's arrays and publishes it
// (see publish, which may release them).
func (m *CSR) tune() *tunedOp {
	a := m.arrays.Load()
	if a == nil { // tuned and released since the caller looked
		return m.tuned.Load()
	}
	dec := &tunedOp{}
	if d := a.toDIA(sellMaxPadding); d != nil {
		dec.op = d
	} else if m.n >= sellMinDim && len(a.vals) > 0 && len(a.vals) <= math.MaxInt32/2 {
		// The nnz bound is a conservative pre-check of the padded size
		// before building: padding can at most round every row up to
		// the window max, so a matrix whose nnz is already near
		// MaxInt32 is screened out.
		if s := newSELL(a, DefaultSellSigma); s.PaddingRatio() <= sellMaxPadding {
			dec.op = s
		}
	}
	return m.publish(a, dec)
}

var (
	_ Matrix     = (*SELL)(nil)
	_ Sparse     = (*SELL)(nil)
	_ PoolMulVec = (*SELL)(nil)
)
