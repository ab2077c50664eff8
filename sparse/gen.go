package sparse

import (
	"fmt"
	"math"

	"vrcg/internal/vec"
)

// Poisson1D returns the m x m tridiagonal Laplacian [-1 2 -1] in CSR form.
// Its eigenvalues are 2 - 2*cos(k*pi/(m+1)), so it is SPD with condition
// number growing like m^2 — a convenient ill-conditioned family for the
// stability experiments.
func Poisson1D(m int) *CSR {
	return Stencil1D3.CSR(m)
}

// Poisson2D returns the five-point Laplacian on an m x m grid in CSR form
// (order m^2).
func Poisson2D(m int) *CSR {
	return Stencil2D5.CSR(m)
}

// Poisson3D returns the seven-point Laplacian on an m^3 grid in CSR form
// (order m^3).
func Poisson3D(m int) *CSR {
	return Stencil3D7.CSR(m)
}

// TridiagToeplitz returns the symmetric Toeplitz tridiagonal matrix with
// the given diagonal and off-diagonal values. SPD requires diag > 2*|off|.
// A value that is exactly zero is not stored.
func TridiagToeplitz(n int, diag, off float64) *CSR {
	if n <= 0 {
		panic("sparse: TridiagToeplitz requires n > 0")
	}
	return gridCSR(gridSides(n, 1), []stencilPoint{{di: -1, w: off}, {w: diag}, {di: 1, w: off}})
}

// RandomSPD returns a random symmetric strictly diagonally dominant (hence
// SPD) matrix of order n with approximately nnzPerRow off-diagonal entries
// per row, generated deterministically from seed.
func RandomSPD(n, nnzPerRow int, seed uint64) *CSR {
	if nnzPerRow < 0 {
		panic("sparse: RandomSPD requires nnzPerRow >= 0")
	}
	if nnzPerRow >= n {
		nnzPerRow = n - 1
	}
	coo := NewCOO(n)
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	uniform := func() float64 { return float64(next()>>11) / float64(1<<53) }

	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow/2+1; k++ {
			j := int(next() % uint64(n))
			if j == i {
				continue
			}
			v := uniform() - 0.5
			coo.AddSym(i, j, v)
			rowAbs[i] += math.Abs(v)
			rowAbs[j] += math.Abs(v)
		}
	}
	// Strict dominance margin keeps the matrix well away from singular.
	for i := 0; i < n; i++ {
		coo.Add(i, i, rowAbs[i]+1+uniform())
	}
	return coo.ToCSR()
}

// GraphLaplacian builds the Laplacian L = D - W of an undirected weighted
// graph given as edge list, shifted by +shift*I to make it strictly SPD
// (the pure Laplacian is only semidefinite). Edges are (u, v, weight)
// triples with u != v and weight > 0.
type Edge struct {
	U, V int
	W    float64
}

// GraphLaplacian assembles the shifted graph Laplacian in CSR form.
func GraphLaplacian(n int, edges []Edge, shift float64) *CSR {
	if shift <= 0 {
		panic("sparse: GraphLaplacian needs shift > 0 for positive definiteness")
	}
	coo := NewCOO(n)
	deg := make([]float64, n)
	for _, e := range edges {
		if e.U == e.V {
			panic(fmt.Sprintf("sparse: self-loop on vertex %d", e.U))
		}
		if e.W <= 0 {
			panic(fmt.Sprintf("sparse: non-positive edge weight %v", e.W))
		}
		coo.Add(e.U, e.V, -e.W)
		coo.Add(e.V, e.U, -e.W)
		deg[e.U] += e.W
		deg[e.V] += e.W
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, deg[i]+shift)
	}
	return coo.ToCSR()
}

// RingLaplacian is a convenience generator: the shifted Laplacian of an
// n-cycle, giving a circulant SPD matrix with known spectrum
// shift + 2 - 2*cos(2*pi*k/n).
func RingLaplacian(n int, shift float64) *CSR {
	edges := make([]Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = Edge{U: i, V: (i + 1) % n, W: 1}
	}
	return GraphLaplacian(n, edges, shift)
}

// DiagonalMatrix returns a diagonal matrix with the given entries, used to
// construct problems with a prescribed spectrum (and hence prescribed CG
// convergence behaviour).
func DiagonalMatrix(d []float64) *CSR {
	coo := NewCOO(len(d))
	for i, v := range d {
		coo.Add(i, i, v)
	}
	return coo.ToCSR()
}

// PrescribedSpectrum returns a diagonal SPD matrix whose eigenvalues are
// geometrically spaced in [1, kappa]; CG's worst-case convergence rate is
// governed by sqrt(kappa), making this the canonical conditioning study.
func PrescribedSpectrum(n int, kappa float64) *CSR {
	if kappa < 1 {
		panic("sparse: PrescribedSpectrum requires kappa >= 1")
	}
	d := vec.New(n)
	if n == 1 {
		d[0] = kappa
	} else {
		ratio := math.Pow(kappa, 1/float64(n-1))
		x := 1.0
		for i := 0; i < n; i++ {
			d[i] = x
			x *= ratio
		}
	}
	return DiagonalMatrix(d)
}

// PowerApply computes dst[i] = A^i * x for i = 0..k, returning k+1 freshly
// allocated vectors. The look-ahead algorithm needs the Krylov sequence
// {A^i r, A^i p}; this helper is the reference implementation tests
// validate the recurrence-based version against.
func PowerApply(a Matrix, x []float64, k int) [][]float64 {
	if k < 0 {
		panic("sparse: PowerApply requires k >= 0")
	}
	out := make([][]float64, k+1)
	out[0] = vec.Clone(x)
	for i := 1; i <= k; i++ {
		out[i] = vec.New(a.Dim())
		a.MulVec(out[i], out[i-1])
	}
	return out
}
