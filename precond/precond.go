// Package precond provides the symmetric preconditioners referenced in
// the paper's introduction ("can be quite efficient when coupled with
// various preconditioning techniques"): Jacobi, SSOR, incomplete
// Cholesky (IC0), and matrix polynomial preconditioners. All are
// symmetric positive definite operators M^{-1}, applied as z = M^{-1} r,
// and therefore preserve the CG theory for the preconditioned system.
//
// The package is public so solve.WithPreconditioner is usable from
// external code without copying implementations: every type here
// satisfies the solve.Preconditioner interface directly (Apply is
// stated on vec.Vector, an alias of []float64). Pointwise
// preconditioners additionally implement PoolApplier and run on the
// shared worker pool inside pooled solves.
//
// The triangular-solve preconditioners (SSOR, IC0) do not substitute in
// row order: a row waits only for the rows it reads, so the rows are
// levelled by that dependency graph when the preconditioner is built and
// Apply sweeps level by level — sequential across levels (127 of them
// for the 64×64 five-point grid's 4096 rows; 4096 for a chain of that
// order), independent within one — returning, bit for bit, what the
// row-order substitution returns (trisweep.go, vec.TriSweep).
//
// Concurrency: Identity and Jacobi write only dst and may be shared
// across goroutines; SSOR and IC0 carry the vector between their two
// sweeps in internal scratch, so one instance must not be applied
// concurrently — build one per goroutine, or serialize Apply behind a
// lock when a single factorization is shared (as solve.Batch workers
// share the options they fork from).
package precond

import (
	"errors"
	"fmt"
	"math"

	"vrcg/internal/vec"
	"vrcg/sparse"
)

// ErrUnknownName is returned by ByName for names it does not map.
var ErrUnknownName = errors.New("precond: unknown preconditioner name")

// ByName builds one of the standard preconditioners from a by its CLI/
// wire name — the single vocabulary cmd/cgsolve and the solve server
// share: "identity", "jacobi", "ssor" (w = 1.5), or "ic0". Unknown
// names wrap ErrUnknownName.
func ByName(name string, a *sparse.CSR) (Preconditioner, error) {
	switch name {
	case "identity":
		return NewIdentity(a.Dim()), nil
	case "jacobi":
		return NewJacobi(a)
	case "ssor":
		return NewSSOR(a, 1.5)
	case "ic0":
		return NewIC0(a)
	default:
		return nil, fmt.Errorf("%w: %q (want identity|jacobi|ssor|ic0)", ErrUnknownName, name)
	}
}

// Preconditioner applies z = M^{-1} r. Implementations must be symmetric
// positive definite so preconditioned CG remains well defined.
type Preconditioner interface {
	// Dim returns the operator order.
	Dim() int
	// Apply computes dst = M^{-1} r. dst and r must not alias.
	Apply(dst, r vec.Vector)
}

// PoolApplier is a Preconditioner that can apply itself over a worker
// pool. Pointwise preconditioners (Identity, Jacobi) implement it;
// triangular-solve preconditioners (SSOR, IC0) are sequential across
// the levels of their dependency graph, with too little work in one
// level to hand to a pool, and do not.
type PoolApplier interface {
	Preconditioner
	// ApplyPool computes dst = M^{-1} r using pooled kernels.
	ApplyPool(pool *vec.Pool, dst, r vec.Vector)
}

// Identity is the trivial preconditioner M = I.
type Identity struct{ N int }

// NewIdentity returns the identity preconditioner of order n.
func NewIdentity(n int) *Identity { return &Identity{N: n} }

// Dim returns the operator order.
func (p *Identity) Dim() int { return p.N }

// Apply copies r into dst.
func (p *Identity) Apply(dst, r vec.Vector) {
	if len(dst) != p.N || len(r) != p.N {
		panic("precond: Identity dimension mismatch")
	}
	vec.Copy(dst, r)
}

// ApplyPool is Apply; a copy does not benefit from the pool.
func (p *Identity) ApplyPool(_ *vec.Pool, dst, r vec.Vector) { p.Apply(dst, r) }

// Jacobi is diagonal scaling: M = diag(A).
type Jacobi struct {
	invDiag vec.Vector
}

// NewJacobi extracts the diagonal of a and returns the Jacobi
// preconditioner. It returns an error if any diagonal entry is not
// positive and finite (A must be SPD).
func NewJacobi(a *sparse.CSR) (*Jacobi, error) {
	d := vec.New(a.Dim())
	a.Diag(d)
	if err := checkDiagonal(d); err != nil {
		return nil, err
	}
	inv := vec.New(a.Dim())
	for i, v := range d {
		inv[i] = 1 / v
	}
	return &Jacobi{invDiag: inv}, nil
}

// checkDiagonal reports the first diagonal entry that is not positive
// and finite; an SPD matrix has none (and a NaN fails every comparison,
// an Inf inverts to a zero of M^{-1}).
func checkDiagonal(d vec.Vector) error {
	for i, v := range d {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("precond: diagonal entry %g at row %d is not positive and finite", v, i)
		}
	}
	return nil
}

// Dim returns the operator order.
func (p *Jacobi) Dim() int { return len(p.invDiag) }

// Apply computes dst = diag(A)^{-1} r.
func (p *Jacobi) Apply(dst, r vec.Vector) {
	if len(dst) != p.Dim() || len(r) != p.Dim() {
		panic("precond: Jacobi dimension mismatch")
	}
	vec.MulElem(dst, r, p.invDiag)
}

// ApplyPool computes dst = diag(A)^{-1} r with the pooled elementwise
// multiply.
func (p *Jacobi) ApplyPool(pool *vec.Pool, dst, r vec.Vector) {
	if len(dst) != p.Dim() || len(r) != p.Dim() {
		panic("precond: Jacobi dimension mismatch")
	}
	pool.MulElem(dst, r, p.invDiag)
}

// SSOR is the symmetric successive over-relaxation preconditioner
//
//	M = (D/w + L) * (w/(2-w)) * D^{-1} * (D/w + U)
//
// for A = L + D + U with relaxation parameter 0 < w < 2. Applying M^{-1}
// is a forward triangular solve, a diagonal scale, and a backward
// triangular solve, the two triangles of A packed once as level-
// scheduled sweeps.
type SSOR struct {
	tri *triSolve
	mid vec.Vector // ((2-w)/w)·D, by sweep position
}

// NewSSOR builds the SSOR preconditioner for symmetric a with relaxation
// parameter w in (0, 2).
func NewSSOR(a *sparse.CSR, w float64) (*SSOR, error) {
	if w <= 0 || w >= 2 {
		return nil, fmt.Errorf("precond: SSOR relaxation parameter %g outside (0,2)", w)
	}
	if err := checkOrder(a.Dim()); err != nil {
		return nil, err
	}
	lower, d, _ := triangle(a, false)
	upper, _, _ := triangle(a, true)
	if err := checkDiagonal(d); err != nil {
		return nil, err
	}
	p := &SSOR{tri: newTriSolve(lower, upper, d, w), mid: vec.New(len(d))}
	scale := (2 - w) / w
	for q, i := range p.tri.perm {
		p.mid[q] = scale * d[i]
	}
	return p, nil
}

// Dim returns the operator order.
func (p *SSOR) Dim() int { return len(p.mid) }

// Apply computes dst = M^{-1} r via forward solve, diagonal scale,
// backward solve.
func (p *SSOR) Apply(dst, r vec.Vector) {
	n := p.Dim()
	if len(dst) != n || len(r) != n {
		panic("precond: SSOR dimension mismatch")
	}
	// Forward solve (D/w + L) y = r.
	y := p.tri.forward(r)
	// Scale: y <- ((2-w)/w) * D * y
	vec.MulElem(y, y, p.mid)
	// Backward solve (D/w + U) dst = y.
	p.tri.backward(dst)
}

// Polynomial preconditions with a fixed polynomial in A:
// M^{-1} = q(A) where q approximates A^{-1}. Supported constructions are
// the truncated Neumann series and Chebyshev polynomials over a spectral
// interval.
type Polynomial struct {
	a      sparse.Matrix
	coeffs []float64 // q(A) = sum_i coeffs[i] A^i
	t1, t2 vec.Vector
}

// Dim returns the operator order.
func (p *Polynomial) Dim() int { return p.a.Dim() }

// Coeffs returns a copy of the polynomial coefficients (degree ascending).
func (p *Polynomial) Coeffs() []float64 {
	out := make([]float64, len(p.coeffs))
	copy(out, p.coeffs)
	return out
}

// Apply computes dst = q(A) r by Horner's rule using two work vectors.
func (p *Polynomial) Apply(dst, r vec.Vector) {
	n := p.Dim()
	if len(dst) != n || len(r) != n {
		panic("precond: Polynomial dimension mismatch")
	}
	k := len(p.coeffs) - 1
	// Horner: acc = c_k r; acc = A*acc + c_i r
	vec.ScaleTo(p.t1, p.coeffs[k], r)
	for i := k - 1; i >= 0; i-- {
		p.a.MulVec(p.t2, p.t1)
		vec.AxpyTo(p.t1, p.coeffs[i], r, p.t2)
	}
	vec.Copy(dst, p.t1)
}

// NewNeumann builds the truncated Neumann-series preconditioner of the
// scaled operator: with s chosen so the spectrum of sA lies in (0,2),
// A^{-1} ≈ s * sum_{i=0..deg} (I - sA)^i. lambdaMax must be an upper
// bound on the largest eigenvalue of A.
func NewNeumann(a sparse.Matrix, deg int, lambdaMax float64) (*Polynomial, error) {
	if deg < 0 {
		return nil, fmt.Errorf("precond: Neumann degree %d < 0", deg)
	}
	if lambdaMax <= 0 {
		return nil, fmt.Errorf("precond: lambdaMax %g must be positive", lambdaMax)
	}
	s := 1 / lambdaMax
	// sum_{i<=deg} (I - sA)^i expanded into coefficients of A^j:
	// (I - sA)^i = sum_j C(i,j) (-s)^j A^j
	coeffs := make([]float64, deg+1)
	for i := 0; i <= deg; i++ {
		binom := 1.0
		pow := 1.0
		for j := 0; j <= i; j++ {
			coeffs[j] += binom * pow
			// next: binom C(i,j+1) = C(i,j)*(i-j)/(j+1), pow *= (-s)
			binom = binom * float64(i-j) / float64(j+1)
			pow *= -s
		}
	}
	for j := range coeffs {
		coeffs[j] *= s
	}
	return &Polynomial{a: a, coeffs: coeffs, t1: vec.New(a.Dim()), t2: vec.New(a.Dim())}, nil
}

// NewChebyshev builds the degree-deg Chebyshev polynomial preconditioner
// for a spectrum enclosed in [lambdaMin, lambdaMax], the minimax-optimal
// polynomial approximation to A^{-1} on that interval.
func NewChebyshev(a sparse.Matrix, deg int, lambdaMin, lambdaMax float64) (*Polynomial, error) {
	if deg < 0 {
		return nil, fmt.Errorf("precond: Chebyshev degree %d < 0", deg)
	}
	if lambdaMin <= 0 || lambdaMax <= lambdaMin {
		return nil, fmt.Errorf("precond: invalid spectral interval [%g, %g]", lambdaMin, lambdaMax)
	}
	// Build q(x) ≈ 1/x as a polynomial interpolating 1/x at the deg+1
	// Chebyshev nodes of [lambdaMin, lambdaMax], expressed in monomial
	// coefficients via Newton's divided differences then expansion.
	m := deg + 1
	nodes := make([]float64, m)
	for i := 0; i < m; i++ {
		theta := math.Pi * (2*float64(i) + 1) / (2 * float64(m))
		nodes[i] = 0.5*(lambdaMax+lambdaMin) + 0.5*(lambdaMax-lambdaMin)*math.Cos(theta)
	}
	// Divided differences for f(x) = 1/x.
	dd := make([]float64, m)
	for i := 0; i < m; i++ {
		dd[i] = 1 / nodes[i]
	}
	for level := 1; level < m; level++ {
		for i := m - 1; i >= level; i-- {
			dd[i] = (dd[i] - dd[i-1]) / (nodes[i] - nodes[i-level])
		}
	}
	// Expand Newton form to monomial coefficients.
	coeffs := make([]float64, m)
	// poly = dd[m-1]; then poly = poly*(x - nodes[i]) + dd[i]
	coeffs[0] = dd[m-1]
	degSoFar := 0
	for i := m - 2; i >= 0; i-- {
		// multiply by (x - nodes[i]): shift up and subtract node*coeff
		for j := degSoFar + 1; j >= 1; j-- {
			coeffs[j] = coeffs[j-1] - nodes[i]*coeffs[j]
		}
		coeffs[0] = -nodes[i]*coeffs[0] + dd[i]
		degSoFar++
	}
	return &Polynomial{a: a, coeffs: coeffs, t1: vec.New(a.Dim()), t2: vec.New(a.Dim())}, nil
}

var (
	_ Preconditioner = (*Identity)(nil)
	_ Preconditioner = (*Jacobi)(nil)
	_ Preconditioner = (*SSOR)(nil)
	_ Preconditioner = (*Polynomial)(nil)
	_ PoolApplier    = (*Identity)(nil)
	_ PoolApplier    = (*Jacobi)(nil)
)
