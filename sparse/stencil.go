package sparse

import (
	"fmt"

	"vrcg/internal/vec"
)

// Stencil kinds supported by the matrix-free grid operators. The paper's
// complexity bound max(log d, log log N) is parameterized by d, the row
// degree; these stencils realize d = 3, 5, 7, 9 and 27 on regular grids
// with homogeneous Dirichlet boundaries. All are symmetric positive
// definite discrete Laplacians (scaled so the diagonal is positive).
type StencilKind int

const (
	// Stencil1D3 is the 1D three-point Laplacian [-1 2 -1].
	Stencil1D3 StencilKind = iota
	// Stencil2D5 is the 2D five-point Laplacian.
	Stencil2D5
	// Stencil2D9 is the 2D nine-point (Moore neighborhood) Laplacian.
	Stencil2D9
	// Stencil3D7 is the 3D seven-point Laplacian.
	Stencil3D7
	// Stencil3D27 is the 3D twenty-seven-point Laplacian.
	Stencil3D27
)

// String names the stencil kind.
func (k StencilKind) String() string {
	switch k {
	case Stencil1D3:
		return "1D-3pt"
	case Stencil2D5:
		return "2D-5pt"
	case Stencil2D9:
		return "2D-9pt"
	case Stencil3D7:
		return "3D-7pt"
	case Stencil3D27:
		return "3D-27pt"
	default:
		return fmt.Sprintf("StencilKind(%d)", int(k))
	}
}

// Degree returns d, the maximum nonzeros per row for the stencil.
func (k StencilKind) Degree() int {
	switch k {
	case Stencil1D3:
		return 3
	case Stencil2D5:
		return 5
	case Stencil2D9:
		return 9
	case Stencil3D7:
		return 7
	case Stencil3D27:
		return 27
	default:
		panic("sparse: unknown stencil kind")
	}
}

// Dims returns the spatial dimensionality of the stencil's grid.
func (k StencilKind) Dims() int {
	switch k {
	case Stencil1D3:
		return 1
	case Stencil2D5, Stencil2D9:
		return 2
	case Stencil3D7, Stencil3D27:
		return 3
	default:
		panic("sparse: unknown stencil kind")
	}
}

// Stencil is a matrix-free discrete Laplacian on a regular grid of side
// m per dimension with homogeneous Dirichlet boundary conditions. Its
// order is m^dims.
type Stencil struct {
	kind StencilKind
	m    int // grid points per dimension
	n    int // total unknowns = m^dims

	// rangeFn caches the row-range kernel as a method value so pooled
	// dispatch (MulVecPool) allocates nothing per call.
	rangeFn vec.RowKernel
}

// NewStencil returns the stencil operator on an m-per-side grid.
func NewStencil(kind StencilKind, m int) *Stencil {
	if m <= 0 {
		panic("sparse: NewStencil requires m > 0")
	}
	n := m
	for i := 1; i < kind.Dims(); i++ {
		n *= m
	}
	s := &Stencil{kind: kind, m: m, n: n}
	s.rangeFn = s.mulRange
	return s
}

// Kind returns the stencil kind.
func (s *Stencil) Kind() StencilKind { return s.kind }

// GridSide returns points per dimension.
func (s *Stencil) GridSide() int { return s.m }

// Dim returns the operator order m^dims.
func (s *Stencil) Dim() int { return s.n }

// MaxRowNonzeros returns the stencil degree d.
func (s *Stencil) MaxRowNonzeros() int { return s.kind.Degree() }

// NNZ returns an exact count of structural nonzeros (interior rows have
// full degree; boundary rows fewer).
func (s *Stencil) NNZ() int {
	var buf [27]stencilPoint
	return gridNNZ(gridSides(s.m, s.kind.Dims()), s.kind.points(buf[:0]))
}

// MulVec computes dst = A*x.
func (s *Stencil) MulVec(dst, x []float64) {
	checkMul(s, dst, x)
	s.mulRange(0, s.n, dst, x)
}

// MulVecPool computes dst = A*x in parallel over the pool by splitting
// the rows (grid points) into near-equal chunks; a stencil does uniform
// work per row, so an equal split balances. Small grids, a nil pool, or
// a serial pool fall back to the serial MulVec. The result is bitwise
// identical to MulVec.
func (s *Stencil) MulVecPool(pool *Pool, dst, x []float64) {
	checkMul(s, dst, x)
	if !pool.RowMulVec(s.n, dst, x, s.rangeFn) {
		s.MulVec(dst, x)
	}
}

// MulRows computes rows [lo, hi) of dst = A*x and writes nothing else of
// dst; see DIA.MulRows.
func (s *Stencil) MulRows(lo, hi int, dst, x []float64) {
	checkMul(s, dst, x)
	checkRows(s, lo, hi)
	s.mulRange(lo, hi, dst, x)
}

// Reach returns the largest col − row of any entry: the far corner of
// the stencil's neighbourhood. Rows [lo, hi) read no x at or past
// hi+Reach.
func (s *Stencil) Reach() int {
	m, far := s.m, 0
	switch s.kind {
	case Stencil1D3:
		far = 1
	case Stencil2D5:
		far = m
	case Stencil2D9:
		far = m + 1
	case Stencil3D7:
		far = m * m
	case Stencil3D27:
		far = m*m + m + 1
	}
	return min(far, s.n-1) // a one-point side has no neighbour there
}

// mulRange computes rows [lo, hi) of dst = A*x. Each row's accumulation
// order is independent of the split, so chunked parallel products are
// bitwise identical to the serial one.
func (s *Stencil) mulRange(lo, hi int, dst, x []float64) {
	switch s.kind {
	case Stencil1D3:
		s.mul1D(lo, hi, dst, x)
	case Stencil2D5:
		s.mul2D5(lo, hi, dst, x)
	case Stencil2D9:
		s.mul2D9(lo, hi, dst, x)
	case Stencil3D7:
		s.mul3D7(lo, hi, dst, x)
	case Stencil3D27:
		s.mul3D27(lo, hi, dst, x)
	}
}

func (s *Stencil) mul1D(lo, hi int, dst, x []float64) {
	m := s.m
	for i := lo; i < hi; i++ {
		v := 2 * x[i]
		if i > 0 {
			v -= x[i-1]
		}
		if i < m-1 {
			v -= x[i+1]
		}
		dst[i] = v
	}
}

// mul2D5 walks [lo, hi) scanline by scanline so the inner loop stays
// free of divisions.
func (s *Stencil) mul2D5(lo, hi int, dst, x []float64) {
	m := s.m
	for idx := lo; idx < hi; {
		j := idx / m
		i := idx - j*m
		end := (j + 1) * m
		if end > hi {
			end = hi
		}
		for ; idx < end; idx, i = idx+1, i+1 {
			v := 4 * x[idx]
			if i > 0 {
				v -= x[idx-1]
			}
			if i < m-1 {
				v -= x[idx+1]
			}
			if j > 0 {
				v -= x[idx-m]
			}
			if j < m-1 {
				v -= x[idx+m]
			}
			dst[idx] = v
		}
	}
}

func (s *Stencil) mul2D9(lo, hi int, dst, x []float64) {
	// 9-point compact Laplacian: center 8/3, edge neighbors -1/3,
	// corner neighbors -1/3 (scaled variant that stays SPD).
	m := s.m
	const center, edge, corner = 8.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0
	for idx := lo; idx < hi; {
		j := idx / m
		i := idx - j*m
		end := (j + 1) * m
		if end > hi {
			end = hi
		}
		for ; idx < end; idx, i = idx+1, i+1 {
			v := center * x[idx]
			for dj := -1; dj <= 1; dj++ {
				for di := -1; di <= 1; di++ {
					if di == 0 && dj == 0 {
						continue
					}
					ii, jj := i+di, j+dj
					if ii < 0 || ii >= m || jj < 0 || jj >= m {
						continue
					}
					w := edge
					if di != 0 && dj != 0 {
						w = corner
					}
					v += w * x[jj*m+ii]
				}
			}
			dst[idx] = v
		}
	}
}

func (s *Stencil) mul3D7(lo, hi int, dst, x []float64) {
	m := s.m
	mm := m * m
	for idx := lo; idx < hi; {
		k := idx / mm
		rem := idx - k*mm
		j := rem / m
		i := rem - j*m
		end := k*mm + (j+1)*m
		if end > hi {
			end = hi
		}
		for ; idx < end; idx, i = idx+1, i+1 {
			v := 6 * x[idx]
			if i > 0 {
				v -= x[idx-1]
			}
			if i < m-1 {
				v -= x[idx+1]
			}
			if j > 0 {
				v -= x[idx-m]
			}
			if j < m-1 {
				v -= x[idx+m]
			}
			if k > 0 {
				v -= x[idx-mm]
			}
			if k < m-1 {
				v -= x[idx+mm]
			}
			dst[idx] = v
		}
	}
}

func (s *Stencil) mul3D27(lo, hi int, dst, x []float64) {
	// 27-point Laplacian with center 2, neighbors -2/26, keeping strict
	// diagonal dominance and SPD.
	m := s.m
	mm := m * m
	const center = 2.0
	const w = -2.0 / 26.0
	for idx := lo; idx < hi; {
		k := idx / mm
		rem := idx - k*mm
		j := rem / m
		i := rem - j*m
		end := k*mm + (j+1)*m
		if end > hi {
			end = hi
		}
		for ; idx < end; idx, i = idx+1, i+1 {
			v := center * x[idx]
			for dk := -1; dk <= 1; dk++ {
				for dj := -1; dj <= 1; dj++ {
					for di := -1; di <= 1; di++ {
						if di == 0 && dj == 0 && dk == 0 {
							continue
						}
						ii, jj, kk := i+di, j+dj, k+dk
						if ii < 0 || ii >= m || jj < 0 || jj >= m || kk < 0 || kk >= m {
							continue
						}
						v += w * x[kk*mm+jj*m+ii]
					}
				}
			}
			dst[idx] = v
		}
	}
}

// stencilPoint is one term of a constant-coefficient stencil: weight w
// on the grid point (di, dj, dk) away from the row's own.
type stencilPoint struct {
	di, dj, dk int
	w          float64
}

// points appends the kind's stencil to buf, the centre included, in
// ascending (dk, dj, di) order — the order in which gridCSR stores a row.
// The weights are the ones the kind's product multiplies by.
func (k StencilKind) points(buf []stencilPoint) []stencilPoint {
	var center, off float64
	axes := true // only the points one step along one axis
	switch k {
	case Stencil1D3:
		center, off = 2, -1
	case Stencil2D5:
		center, off = 4, -1
	case Stencil2D9:
		center, off, axes = 8.0/3.0, -1.0/3.0, false
	case Stencil3D7:
		center, off = 6, -1
	case Stencil3D27:
		center, off, axes = 2.0, -2.0/26.0, false
	}
	var r [3]int // how far the stencil reaches along each axis
	for d := 0; d < k.Dims(); d++ {
		r[d] = 1
	}
	for dk := -r[2]; dk <= r[2]; dk++ {
		for dj := -r[1]; dj <= r[1]; dj++ {
			for di := -r[0]; di <= r[0]; di++ {
				switch far := abs(di) + abs(dj) + abs(dk); {
				case far == 0:
					buf = append(buf, stencilPoint{di, dj, dk, center})
				case far == 1 || !axes:
					buf = append(buf, stencilPoint{di, dj, dk, off})
				}
			}
		}
	}
	return buf
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// gridSides returns the extent of an m-per-side grid of dims (≤ 3)
// dimensions along each of three axes: m along its own, 1 past them.
func gridSides(m, dims int) [3]int {
	side := [3]int{1, 1, 1}
	for d := 0; d < dims; d++ {
		side[d] = m
	}
	return side
}

// gridNNZ counts the entries gridCSR stores: a point of non-zero weight
// lies inside the grid from side−|step| of the positions on every axis.
func gridNNZ(side [3]int, pts []stencilPoint) int {
	nnz := 0
	for _, p := range pts {
		if p.w != 0 {
			nnz += (side[0] - abs(p.di)) * (side[1] - abs(p.dj)) * (side[2] - abs(p.dk))
		}
	}
	return nnz
}

// gridCSR writes the CSR form of a constant-coefficient stencil on a
// grid with homogeneous Dirichlet boundaries, in one pass into arrays of
// exactly its nnz: row (i, j, k) stores, in pts' order, every point that
// lies inside the grid and whose weight is not zero (the entries
// COO.ToCSR would drop). pts must ascend in (dk, dj, di) order, which
// among the points inside the grid is ascending column order, so no row
// needs sorting.
func gridCSR(side [3]int, pts []stencilPoint) *CSR {
	type term struct {
		di, dj, dk, shift int
		w                 float64
	}
	var buf [27]term
	terms := buf[:0]
	for _, p := range pts {
		if p.w != 0 {
			terms = append(terms, term{p.di, p.dj, p.dk, (p.dk*side[1]+p.dj)*side[0] + p.di, p.w})
		}
	}
	n, nnz := side[0]*side[1]*side[2], gridNNZ(side, pts)
	rowPtr, colIdx, vals := make([]int, n+1), make([]int, nnz), make([]float64, nnz)
	row, q := 0, 0
	for k := 0; k < side[2]; k++ {
		for j := 0; j < side[1]; j++ {
			for i := 0; i < side[0]; i++ {
				for _, t := range terms {
					if uint(i+t.di) >= uint(side[0]) || uint(j+t.dj) >= uint(side[1]) || uint(k+t.dk) >= uint(side[2]) {
						continue
					}
					colIdx[q], vals[q] = row+t.shift, t.w
					q++
				}
				row++
				rowPtr[row] = q
			}
		}
	}
	a := &CSR{n: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
	a.warmPartition()
	return a
}

// ToCSR expands the stencil into explicit CSR form, each row written in
// ascending column order straight into its place.
func (s *Stencil) ToCSR() *CSR {
	var buf [27]stencilPoint
	return gridCSR(gridSides(s.m, s.kind.Dims()), s.kind.points(buf[:0]))
}

var (
	_ Matrix     = (*Stencil)(nil)
	_ Sparse     = (*Stencil)(nil)
	_ PoolMulVec = (*Stencil)(nil)
)
