package sparse

import "fmt"

// StencilKind names a constant-coefficient grid Laplacian. The paper's
// complexity bound max(log d, log log N) is parameterized by d, the row
// degree; these stencils realize d = 3, 5, 7, 9 and 27 on regular grids
// with homogeneous Dirichlet boundaries. All are symmetric positive
// definite discrete Laplacians (scaled so the diagonal is positive).
// CSR builds one; TuneMulVec runs the banded kinds on diagonal storage.
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

// CSR returns the kind's operator on a grid of m points per side, order
// m^Dims, each row written in ascending column order straight into its
// place.
func (k StencilKind) CSR(m int) *CSR {
	if m <= 0 {
		panic("sparse: StencilKind.CSR requires m > 0")
	}
	var buf [27]stencilPoint
	return gridCSR(gridSides(m, k.Dims()), k.points(buf[:0]))
}

// stencilPoint is one term of a constant-coefficient stencil: weight w
// on the grid point (di, dj, dk) away from the row's own.
type stencilPoint struct {
	di, dj, dk int
	w          float64
}

// points appends the kind's stencil to buf, the centre included, in
// ascending (dk, dj, di) order — the order in which gridCSR stores a row.
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
