package precond

import (
	"fmt"
	"math"

	"vrcg/internal/vec"
	"vrcg/sparse"
)

// IC0 is the zero-fill incomplete Cholesky preconditioner: M = L L^T
// where L has the sparsity of A's lower triangle. For SPD M-matrices
// (the discrete Laplacians in this repository) the factorization exists
// and PCG with IC(0) is the classical workhorse the paper's
// preconditioning remark points at.
//
// The factor is kept only as the two packed sweeps Apply runs: L by
// rows, and L^T by rows with every row's entries in descending column
// order.
type IC0 struct {
	tri *triSolve
}

// NewIC0 computes the IC(0) factorization of the symmetric positive
// definite matrix a. It returns an error if a pivot is not positive and
// finite (the factorization does not exist for this sparsity; shift the
// matrix or use a different preconditioner).
func NewIC0(a *sparse.CSR) (*IC0, error) {
	l, d, err := ic0Factor(a)
	if err != nil {
		return nil, err
	}
	return &IC0{tri: newTriSolve(l, transposed(l), d, 1)}, nil
}

// ic0Factor returns the factor's strictly lower rows and its diagonal.
func ic0Factor(a *sparse.CSR) (l vec.TriRows, d []float64, err error) {
	// The lower-triangular pattern of a; l.Vals and d become the factor
	// in place.
	if err := checkOrder(a.Dim()); err != nil {
		return l, nil, err
	}
	l, d, missing := triangle(a, false)
	if missing >= 0 {
		return l, nil, fmt.Errorf("precond: row %d has no diagonal entry", missing)
	}

	// Row-oriented IC(0): for each row i, update against previous rows
	// restricted to the existing pattern.
	// l[i][j] = (a[i][j] - sum_k l[i][k] l[j][k]) / l[j][j], k < j
	// l[i][i] = sqrt(a[i][i] - sum_k l[i][k]^2)
	find := func(row, col int32) int {
		for p := l.Ptr[row]; p < l.Ptr[row+1]; p++ {
			if l.Idx[p] == col {
				return p
			}
		}
		return -1
	}
	for i := range d {
		lo, hi := l.Ptr[i], l.Ptr[i+1]
		for p := lo; p < hi; p++ {
			j := l.Idx[p]
			s := l.Vals[p]
			// Dot of row i and row j patterns below column j.
			for q := lo; q < p; q++ {
				if jq := find(j, l.Idx[q]); jq >= 0 {
					s -= l.Vals[q] * l.Vals[jq]
				}
			}
			l.Vals[p] = s / d[j]
		}
		pivot := d[i]
		for q := lo; q < hi; q++ {
			pivot -= l.Vals[q] * l.Vals[q]
		}
		if !(pivot > 0) || math.IsInf(pivot, 1) {
			return l, nil, fmt.Errorf("precond: IC(0) pivot %g at row %d: %w", pivot, i, ErrNotFactorizable)
		}
		d[i] = math.Sqrt(pivot)
	}
	return l, d, nil
}

// ErrNotFactorizable reports that IC(0) broke down on this matrix.
var ErrNotFactorizable = fmt.Errorf("precond: matrix has no IC(0) factorization")

// Dim returns the operator order.
func (ic *IC0) Dim() int { return len(ic.tri.perm) }

// Apply computes dst = (L L^T)^{-1} r by forward and backward
// substitution over the triangular factor, level by level.
func (ic *IC0) Apply(dst, r vec.Vector) {
	if len(dst) != ic.Dim() || len(r) != ic.Dim() {
		panic("precond: IC0 dimension mismatch")
	}
	ic.tri.forward(r)
	ic.tri.backward(dst)
}

var _ Preconditioner = (*IC0)(nil)
