// Package core implements the paper's contribution: the algebraically
// restructured conjugate gradient iteration of Van Rosendale (1983) that
// minimizes inner-product data dependencies ("VRCG").
//
// The key objects are the three sliding inner-product families of §5:
//
//	M_i = (r(n), A^i r(n))    i = 0..2k
//	N_i = (r(n), A^i p(n))    i = 0..2k+1
//	W_i = (p(n), A^i p(n))    i = 0..2k+2
//
// together with the Krylov vector families R_i = A^i r(n) (i = 0..k) and
// P_i = A^i p(n) (i = 0..k+1). One CG step advances every family by
// scalar and axpy recurrences:
//
//	M'_i = M_i - 2λ N_{i+1} + λ² W_{i+2}                 (the paper's §3/§5 relation)
//	N'_i = M'_i + a (N_i - λ W_{i+1})
//	W'_i = M'_i + 2a (N_i - λ W_{i+1}) + a² W_i
//	R'_i = R_i - λ P_{i+1},  P'_i = R'_i + a P_i          (the paper's §5 vector relations)
//
// Only the top entries of each window lack a recurrence source and are
// computed directly from the vector families — three inner products per
// iteration (the paper asserts two using recurrence details it deferred
// to a future paper that never appeared; three is what the published
// relations support, and the distinction is immaterial to every
// complexity claim). One matrix–vector product per iteration maintains
// the top vector power, exactly as §5 requires.
//
// Because the scalars needed at iteration n (M_0 and W_1) were produced
// by inputs computed k iterations earlier, the length-N summation
// fan-ins can be pipelined across k iterations; with k = log N the
// per-iteration critical path is the O(log k) = O(log log N) scalar
// recurrence evaluation — the paper's headline claim.
package core

import (
	"fmt"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

// Window holds the three sliding inner-product families for look-ahead
// parameter k. The slices are sized M: 2k+1, N: 2k+2, W: 2k+3 entries,
// consecutive stretches of one array, so InitDirect fills them as one
// batch.
type Window struct {
	K int
	M []float64 // M[i] = (r, A^i r),   i = 0..2k
	N []float64 // N[i] = (r, A^i p),   i = 0..2k+1
	W []float64 // W[i] = (p, A^i p),   i = 0..2k+2

	// scratch slabs swapped with M/N/W by Step, so advancing the window
	// is allocation-free.
	m2, n2, w2 []float64
}

// NewWindow allocates a zero window for look-ahead parameter k >= 0.
func NewWindow(k int) *Window {
	if k < 0 {
		panic("core: look-ahead parameter must be >= 0")
	}
	a, b := make([]float64, 6*k+6), make([]float64, 6*k+6)
	return &Window{
		K: k,
		M: a[:2*k+1], N: a[2*k+1 : 4*k+3], W: a[4*k+3:],
		m2: b[:2*k+1], n2: b[2*k+1 : 4*k+3], w2: b[4*k+3:],
	}
}

// RR returns (r, r), the scalar the paper's recurrence delivers for the
// current iteration.
func (w *Window) RR() float64 { return w.M[0] }

// PAP returns (p, A p).
func (w *Window) PAP() float64 { return w.W[1] }

// Clone returns an independent copy of the window.
func (w *Window) Clone() *Window {
	c := NewWindow(w.K)
	copy(c.M, w.M)
	copy(c.N, w.N)
	copy(c.W, w.W)
	return c
}

// Step advances the window by one CG iteration with step scalars lambda
// (the paper's λ_n) and alpha (the paper's a_{n+1}), consuming the three
// directly computed replacement entries for the window tops:
//
//	topN = (r', A^{2k+1} p'),  topW1 = (p', A^{2k+1} p'),  topW2 = (p', A^{2k+2} p').
//
// Every other entry follows from the recurrences. Step returns the new
// (r', r') so the caller can form the next alpha; note alpha must already
// be known to call Step, so the caller first computes the M update alone
// via PeekRR.
func (w *Window) Step(lambda, alpha, topN, topW1, topW2 float64) {
	k := w.K
	nM, nN, nW := w.m2, w.n2, w.w2
	for i := 0; i <= 2*k; i++ {
		nM[i] = w.M[i] - 2*lambda*w.N[i+1] + lambda*lambda*w.W[i+2]
	}
	for i := 0; i <= 2*k; i++ {
		t := w.N[i] - lambda*w.W[i+1]
		nN[i] = nM[i] + alpha*t
		nW[i] = nM[i] + 2*alpha*t + alpha*alpha*w.W[i]
	}
	nN[2*k+1] = topN
	nW[2*k+1] = topW1
	nW[2*k+2] = topW2
	w.M, w.N, w.W, w.m2, w.n2, w.w2 = nM, nN, nW, w.M, w.N, w.W
}

// PeekRR returns what (r', r') will be after a step with the given
// lambda, using only the recurrence — this is the quantity the paper
// shows in §3:
//
//	(r', r') = (r, r) - 2λ (r, A p) + λ² (p, A² p).
func (w *Window) PeekRR(lambda float64) float64 {
	return w.M[0] - 2*lambda*w.N[1] + lambda*lambda*w.W[2]
}

// InitDirect fills the window with directly computed inner products of
// the Krylov vector families f.R[i] = A^i r (i = 0..k) and f.P[i] = A^i p
// (i = 0..k+1) — all 6k+6 as one reduction on ws, over the pairs f lists.
func (w *Window) InitDirect(ws *engine.Workspace, f *Families) {
	if f.K != w.K {
		panic(fmt.Sprintf("core: InitDirect of a k=%d window from k=%d families", w.K, f.K))
	}
	m := 6*w.K + 6
	ws.Dots(w.M[:m], f.gx[:m], f.gy[:m]) // M, N and W are one array
}

// Families holds the Krylov vector families of §5: R[i] = A^i r for
// i = 0..k and P[i] = A^i p for i = 0..k+1. R[0] and P[0] are the actual
// CG residual and direction vectors.
type Families struct {
	K int
	R []vec.Vector // k+1 vectors
	P []vec.Vector // k+2 vectors

	// gx[i], gy[i] are the factors of the window's i-th direct inner
	// product, by symmetry (x, A^i y) = (A^a x, A^{i-a} y): M_0..M_2k,
	// N_0..N_2k+1, W_0..W_2k+2, then the three window tops again.
	gx, gy []vec.Vector
	tops   [3]float64

	pool *vec.Pool // kernels dispatch here; nil = serial
}

// listPairs builds gx, gy; the families keep their vectors for life.
func (f *Families) listPairs() {
	k := f.K
	add := func(x, y vec.Vector) { f.gx, f.gy = append(f.gx, x), append(f.gy, y) }
	for i := 0; i <= 2*k; i++ { // M_i = (r, A^i r): a, b <= k
		add(f.R[i/2], f.R[i-i/2])
	}
	for i := 0; i <= 2*k+1; i++ { // N_i = (r, A^i p): a <= k, b <= k+1
		a := min(i/2, k)
		add(f.R[a], f.P[i-a])
	}
	for i := 0; i <= 2*k+2; i++ { // W_i = (p, A^i p): a, b <= k+1
		add(f.P[i/2], f.P[i-i/2])
	}
	add(f.R[k], f.P[k+1])
	add(f.P[k], f.P[k+1])
	add(f.P[k+1], f.P[k+1])
}

// NewFamilies builds the families at start-up from r(0) = p(0) using
// k+1 matrix–vector products (the paper's "initial start up").
func NewFamilies(a sparse.Matrix, r0 vec.Vector, k int) *Families {
	return NewFamiliesPool(a, r0, k, nil)
}

// NewFamiliesPool is NewFamilies with the family's axpy/matvec kernels
// routed through the given worker pool (nil = serial).
func NewFamiliesPool(a sparse.Matrix, r0 vec.Vector, k int, pool *vec.Pool) *Families {
	if k < 0 {
		panic("core: look-ahead parameter must be >= 0")
	}
	f := &Families{
		K:    k,
		R:    make([]vec.Vector, k+1),
		P:    make([]vec.Vector, k+2),
		pool: pool,
	}
	n := a.Dim()
	for i := range f.R {
		f.R[i] = vec.New(n)
	}
	for i := range f.P {
		f.P[i] = vec.New(n)
	}
	f.listPairs()
	f.Rebuild(a, r0)
	return f
}

// Rebuild refills the families in place from a fresh start-up residual
// r0 = p0, using the same k+1 matrix–vector products as construction —
// the warm-reuse path of the engine kernels: a persistent Families is
// rebuilt per solve with zero allocations.
func (f *Families) Rebuild(a sparse.Matrix, r0 vec.Vector) {
	vec.Copy(f.R[0], r0)
	for i := 1; i <= f.K; i++ {
		sparse.PooledMulVec(a, f.pool, f.R[i], f.R[i-1])
	}
	for i := 0; i <= f.K; i++ {
		vec.Copy(f.P[i], f.R[i])
	}
	sparse.PooledMulVec(a, f.pool, f.P[f.K+1], f.P[f.K])
}

// Step advances the families by one CG iteration: R'_i = R_i - λ P_{i+1}
// (axpys), P'_i = R'_i + a P_i for i <= k (axpys), and the single
// matrix–vector product P'_{k+1} = A P'_k.
func (f *Families) Step(a sparse.Matrix, lambda, alpha float64) {
	f.StepR(lambda)
	f.StepP(a, alpha)
}

// StepR performs the residual-family half of a step: R'_i = R_i - λ P_{i+1}.
// The direction family is untouched, so the caller may inspect the new
// residual (for example to form alpha) before calling StepP.
func (f *Families) StepR(lambda float64) {
	for i := 0; i <= f.K; i++ {
		f.pool.Axpy(-lambda, f.P[i+1], f.R[i])
	}
}

// StepP performs the direction-family half of a step: P'_i = R'_i + a P_i
// for i <= k, then the single matrix–vector product P'_{k+1} = A P'_k.
func (f *Families) StepP(a sparse.Matrix, alpha float64) {
	for i := 0; i <= f.K; i++ {
		f.pool.Xpay(f.R[i], alpha, f.P[i])
	}
	sparse.PooledMulVec(a, f.pool, f.P[f.K+1], f.P[f.K])
}

// DirectTops computes the three window-top inner products from the
// current (already advanced) families, as one reduction on ws:
//
//	topN  = (r, A^{2k+1} p) = (A^k r,     A^{k+1} p)
//	topW1 = (p, A^{2k+1} p) = (A^k p,     A^{k+1} p)
//	topW2 = (p, A^{2k+2} p) = (A^{k+1} p, A^{k+1} p)
func (f *Families) DirectTops(ws *engine.Workspace) (topN, topW1, topW2 float64) {
	m := 6*f.K + 6
	ws.Dots(f.tops[:], f.gx[m:], f.gy[m:])
	return f.tops[0], f.tops[1], f.tops[2]
}

// Residual returns the live residual vector r (family member R[0]).
func (f *Families) Residual() vec.Vector { return f.R[0] }

// Direction returns the live direction vector p (family member P[0]).
func (f *Families) Direction() vec.Vector { return f.P[0] }

// AP returns A p (family member P[1]).
func (f *Families) AP() vec.Vector { return f.P[1] }

// CheckInvariant verifies that every stored power really equals A times
// its predecessor within tol, returning the largest violation. It is a
// test/diagnostic hook; the solver never calls it.
func (f *Families) CheckInvariant(a sparse.Matrix, tol float64) (maxErr float64, ok bool) {
	n := a.Dim()
	tmp := vec.New(n)
	check := func(hi, lo vec.Vector) {
		a.MulVec(tmp, lo)
		for i := range tmp {
			d := tmp[i] - hi[i]
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
		}
	}
	for i := 1; i <= f.K; i++ {
		check(f.R[i], f.R[i-1])
	}
	for i := 1; i <= f.K+1; i++ {
		check(f.P[i], f.P[i-1])
	}
	return maxErr, maxErr <= tol
}
