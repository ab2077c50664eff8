// Package sparse is the public data plane of this repository: the
// sparse (and small dense) symmetric positive definite matrices that
// conjugate gradient iteration consumes, typed on plain []float64
// vectors so external callers can build, load, and implement operators
// without importing anything internal.
//
// It provides:
//
//   - Formats: CSR (with an nnz-balanced parallel MulVecPool), DIA
//     diagonal storage with a row-fused kernel that reads no column
//     indices and, for a symmetric band, stores the diagonals k >= 0
//     once and reads the subdiagonals out of them, and keeps a long
//     diagonal that repeats with a short period as one run of that
//     period (bit for bit the full band's products either way), the
//     cache-blocked SELL-C-σ format (SELL), a COO
//     assembly builder, and Dense for small reference problems. Rect,
//     the rectangular CSR of the least-squares methods, multiplies a
//     matrix of at most eight columns whose rows each store every
//     column as dense rows, and builds no transpose for it (see Rect).
//     TuneMulVec picks the format a CSR's products run on — banded →
//     DIA at any size, else large and paddable → SELL, else the CSR
//     itself — and both tuned formats share one contract: MulVec and
//     MulVecPool bitwise identical to the source CSR's for finite x.
//     Once a form is cached the CSR's own products run on it, for
//     finite x with the row loop's bits, and a banded CSR that stores
//     no ±0 releases its arrays to the band until a method that needs
//     them (a row read, Values, CloneValues, EncodeCSR, ...) rebuilds
//     and pins them (see CSR).
//     Every stored operator — CSR, Rect and their cached transposes,
//     SELL — holds 32-bit column indices, so an order (and a Rect's
//     either dimension) is at most math.MaxInt32; row offsets count
//     entries and stay int. NewCSR and NewRect take []int and copy the
//     indices once into the matrix's own array, so the caller's index
//     slice is left as it was (no longer sorted in place).
//   - I/O: ReadMatrixMarket / WriteMatrixMarket for coordinate-format
//     .mtx files, plus the array-format vector variants, and the JSON
//     wire codec (WireMatrix, EncodeCSR) network layers use to carry
//     matrices with full validation on decode.
//   - Generators: the grid Laplacians of every StencilKind (3- to
//     27-point, 1D/2D/3D; Poisson1D/2D/3D are three of them),
//     variable-coefficient and anisotropic Poisson, Toeplitz, graph
//     Laplacians, random SPD matrices, and prescribed-spectrum test
//     problems. The grid stencils and the Toeplitz tridiagonal write
//     their rows in column order straight into the CSR arrays; the rest
//     assemble through a COO, whose rows are sorted only where they
//     arrive unsorted.
//   - Reordering and spectra: RCM bandwidth reduction, symmetric
//     permutations, Gershgorin/power-method/Lanczos spectral estimates,
//     and symmetric diagonal scaling.
//
// Every matrix type satisfies solve.Operator, so anything built here
// plugs directly into the solve package:
//
//	a, err := sparse.ReadMatrixMarket(f)
//	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-10))
//	res, err := sess.Solve(b)
//
// The package was promoted from internal/mat, keeping every name; the
// forwarding shim that briefly remained there has been removed (see
// ARCHITECTURE.md for where this data plane sits in the system).
package sparse

import (
	"errors"
	"fmt"
)

// Matrix is a square linear operator. All CG variants in this repository
// need only matrix-vector products, so operators may be matrix-free.
type Matrix interface {
	// Dim returns the order n of the (n x n) operator.
	Dim() int
	// MulVec computes dst = A*x. dst and x must have length Dim and must
	// not alias each other.
	MulVec(dst, x []float64)
}

// Sparse is a Matrix with explicit sparsity information, used by the
// complexity model: the paper's parallel-time bound depends on d, the
// maximum number of nonzeros in any row.
type Sparse interface {
	Matrix
	// MaxRowNonzeros returns d, the maximum number of structural
	// nonzeros in any row.
	MaxRowNonzeros() int
	// NNZ returns the total number of structural nonzeros.
	NNZ() int
}

// PoolMulVec is a Matrix that also offers a worker-pool-parallel
// matrix–vector product. CSR implements it with an nnz-balanced row
// partition, and DIA with equal row splits; solvers route
// their hot-path products through PooledMulVec so any operator that can
// parallelize, does.
type PoolMulVec interface {
	Matrix
	// MulVecPool computes dst = A*x over the pool, falling back to the
	// serial product when parallelism is not profitable.
	MulVecPool(pool *Pool, dst, x []float64)
}

// PooledMulVec computes dst = a*x through the pool when the operator
// supports it (and pool is non-nil), and serially otherwise. It is the
// single dispatch point the solver hot paths use.
func PooledMulVec(a Matrix, pool *Pool, dst, x []float64) {
	if pool != nil {
		if pm, ok := a.(PoolMulVec); ok {
			pm.MulVecPool(pool, dst, x)
			return
		}
	}
	a.MulVec(dst, x)
}

// ErrDim reports a dimension mismatch between an operator and a vector.
var ErrDim = errors.New("sparse: dimension mismatch")

func checkMul(a Matrix, dst, x []float64) {
	if len(dst) != a.Dim() || len(x) != a.Dim() {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: A is %d, dst %d, x %d",
			a.Dim(), len(dst), len(x)))
	}
}

func checkRows(a Matrix, lo, hi int) {
	if lo < 0 || hi < lo || hi > a.Dim() {
		panic(fmt.Sprintf("sparse: MulRows range [%d, %d) of %d rows", lo, hi, a.Dim()))
	}
}

// Dense is a dense square matrix stored row-major. It exists for small
// reference problems and for validating sparse kernels against a direct
// implementation; production problems use CSR/DIA/stencil operators.
type Dense struct {
	n    int
	data []float64 // row-major n*n
}

// NewDense returns a zero dense n x n matrix.
func NewDense(n int) *Dense {
	if n <= 0 {
		panic("sparse: NewDense requires n > 0")
	}
	return &Dense{n: n, data: make([]float64, n*n)}
}

// NewDenseFrom builds a dense matrix from rows; all rows must have length n.
func NewDenseFrom(rows [][]float64) *Dense {
	n := len(rows)
	d := NewDense(n)
	for i, row := range rows {
		if len(row) != n {
			panic(fmt.Sprintf("sparse: row %d has %d entries, want %d", i, len(row), n))
		}
		copy(d.data[i*n:(i+1)*n], row)
	}
	return d
}

// Dim returns the order of the matrix.
func (d *Dense) Dim() int { return d.n }

// At returns A[i,j].
func (d *Dense) At(i, j int) float64 { return d.data[i*d.n+j] }

// Set assigns A[i,j] = v.
func (d *Dense) Set(i, j int, v float64) { d.data[i*d.n+j] = v }

// MulVec computes dst = A*x.
func (d *Dense) MulVec(dst, x []float64) {
	checkMul(d, dst, x)
	n := d.n
	for i := 0; i < n; i++ {
		row := d.data[i*n : (i+1)*n]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		dst[i] = s
	}
}

// MulVecT computes dst = Aᵀ*x.
func (d *Dense) MulVecT(dst, x []float64) {
	checkMul(d, dst, x)
	n := d.n
	for j := 0; j < n; j++ {
		dst[j] = 0
	}
	for i := 0; i < n; i++ {
		row := d.data[i*n : (i+1)*n]
		xi := x[i]
		for j, a := range row {
			dst[j] += a * xi
		}
	}
}

// MaxRowNonzeros counts the densest row's structural nonzeros.
func (d *Dense) MaxRowNonzeros() int {
	maxNZ := 0
	for i := 0; i < d.n; i++ {
		nz := 0
		for j := 0; j < d.n; j++ {
			if d.At(i, j) != 0 {
				nz++
			}
		}
		if nz > maxNZ {
			maxNZ = nz
		}
	}
	return maxNZ
}

// NNZ counts all structural nonzeros.
func (d *Dense) NNZ() int {
	nnz := 0
	for _, v := range d.data {
		if v != 0 {
			nnz++
		}
	}
	return nnz
}

// IsSymmetric reports whether A equals its transpose within tol.
func (d *Dense) IsSymmetric(tol float64) bool {
	for i := 0; i < d.n; i++ {
		for j := i + 1; j < d.n; j++ {
			if diff := d.At(i, j) - d.At(j, i); diff > tol || diff < -tol {
				return false
			}
		}
	}
	return true
}

var (
	_ Matrix = (*Dense)(nil)
	_ Sparse = (*Dense)(nil)
)
