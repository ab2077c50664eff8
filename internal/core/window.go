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
// (i = 0..k+1) — all 6k+6 as one reduction on ws, over the pairs f.Gram
// lists.
func (w *Window) InitDirect(ws *engine.Workspace, f *Families) {
	if f.K != w.K {
		panic(fmt.Sprintf("core: InitDirect of a k=%d window from k=%d families", w.K, f.K))
	}
	k := w.K
	xs, ys := f.Gram(2*k+1, 2*k+2, 2*k+3)
	ws.Dots(w.M[:6*k+6], xs, ys) // M, N and W are one array
}

// Operator is what the families multiply by: a sparse.Matrix, or a
// kernel's product on its run, which goes through the workspace and is
// counted there (engine.Run.MatVec).
type Operator interface{ MulVec(dst, x []float64) }

// runOp is the run's operator as an Operator.
type runOp struct{ run *engine.Run }

func (o runOp) MulVec(dst, x []float64) { o.run.MatVec(dst, x) }

// Families holds the Krylov vector families of §5 to depth d: R[i] =
// A^i r for i = 0..d and P[i] = A^i p for i = 0..d+1 — d = k for vrcg,
// whose windows span powers up to 2k+2, and d = 2k for parcg, whose
// anchor batch spans powers up to 4k. R[0] and P[0] are the actual CG
// residual and direction vectors. The vectors are arena vectors of the
// workspace the families are bound to, and every update goes through
// it.
type Families struct {
	K    int // the depth d
	R, P []vec.Vector

	ws *engine.Workspace
	// gx, gy are the factor lists Gram last built; tx, ty the window
	// tops' (DirectTops).
	gx, gy []vec.Vector
	tx, ty [3]vec.Vector
	tops   [3]float64
}

// Bind points depth-d families at arena vectors first … first+2d+2 of
// ws — R[0..d], then P[0..d+1] — and returns the next free index. It
// allocates only what the arena lacks, so a warm kernel rebinds per
// solve for free; Rebuild fills the vectors.
func (f *Families) Bind(ws *engine.Workspace, first, d int) int {
	f.K, f.ws = d, ws
	f.R, f.P = f.R[:0], f.P[:0]
	for i := 0; i <= d; i++ {
		f.R = append(f.R, ws.Vec(first+i))
	}
	for i := 0; i <= d+1; i++ {
		f.P = append(f.P, ws.Vec(first+d+1+i))
	}
	f.tx = [3]vec.Vector{f.R[d], f.P[d], f.P[d+1]}
	f.ty = [3]vec.Vector{f.P[d+1], f.P[d+1], f.P[d+1]}
	return first + 2*d + 3
}

// Gram returns the factor lists of the base inner products
// (r, A^s r) for s < rr, (r, A^s p) for s < rp and (p, A^s p) for
// s < pp, in that order, by symmetry (x, A^s y) = (A^a x, A^{s-a} y)
// with a = min(s/2, d) for x = r and min(s/2, d+1) for x = p. The lists
// are the families' own, rebuilt by every call.
func (f *Families) Gram(rr, rp, pp int) (xs, ys []vec.Vector) {
	f.gx, f.gy = f.gx[:0], f.gy[:0]
	for _, g := range [...]struct {
		x, y []vec.Vector
		w    int
	}{{f.R, f.R, rr}, {f.R, f.P, rp}, {f.P, f.P, pp}} {
		for s := 0; s < g.w; s++ {
			a := min(s/2, len(g.x)-1)
			f.gx, f.gy = append(f.gx, g.x[a]), append(f.gy, g.y[s-a])
		}
	}
	return f.gx, f.gy
}

// Rebuild refills the families from a start-up residual r0 = p0 (which
// may be R[0] itself) with the paper's "initial start up": R[i] =
// A R[i-1], P = R, and the top P[d+1] = A P[d] — d+1 products.
func (f *Families) Rebuild(a Operator, r0 vec.Vector) {
	vec.Copy(f.R[0], r0)
	for i := 1; i <= f.K; i++ {
		a.MulVec(f.R[i], f.R[i-1])
	}
	for i := 0; i <= f.K; i++ {
		vec.Copy(f.P[i], f.R[i])
	}
	f.Top(a)
}

// Regrow recomputes R[1..d] and P[1..d] from the live R[0] and P[0]
// with 2d products, restoring the power invariant the axpy recurrences
// drift from; the top P[d+1] is Top's.
func (f *Families) Regrow(a Operator) {
	for i := 1; i <= f.K; i++ {
		a.MulVec(f.R[i], f.R[i-1])
		a.MulVec(f.P[i], f.P[i-1])
	}
}

// Top takes an iteration's one product: P[d+1] = A P[d].
func (f *Families) Top(a Operator) { a.MulVec(f.P[f.K+1], f.P[f.K]) }

// StepR performs the residual-family half of a step: R'_i = R_i - λ P_{i+1}.
// The direction family is untouched, so the caller may inspect the new
// residual (for example to form alpha) before calling StepP.
func (f *Families) StepR(lambda float64) {
	for i := 0; i <= f.K; i++ {
		f.ws.Axpy(-lambda, f.P[i+1], f.R[i])
	}
}

// StepP performs the direction-family half of a step: UpdateP, then Top.
func (f *Families) StepP(a Operator, alpha float64) {
	f.UpdateP(alpha)
	f.Top(a)
}

// UpdateP is StepP without its product: P'_i = R'_i + a P_i for i <= d.
func (f *Families) UpdateP(alpha float64) {
	for i := 0; i <= f.K; i++ {
		f.ws.Xpay(f.R[i], alpha, f.P[i])
	}
}

// DirectTops computes the three window-top inner products from the
// current (already advanced) families, as one reduction on ws:
//
//	topN  = (r, A^{2k+1} p) = (A^k r,     A^{k+1} p)
//	topW1 = (p, A^{2k+1} p) = (A^k p,     A^{k+1} p)
//	topW2 = (p, A^{2k+2} p) = (A^{k+1} p, A^{k+1} p)
func (f *Families) DirectTops(ws *engine.Workspace) (topN, topW1, topW2 float64) {
	ws.Dots(f.tops[:], f.tx[:], f.ty[:])
	return f.tops[0], f.tops[1], f.tops[2]
}

// Residual returns the live residual vector r (family member R[0]).
func (f *Families) Residual() vec.Vector { return f.R[0] }

// Direction returns the live direction vector p (family member P[0]).
func (f *Families) Direction() vec.Vector { return f.P[0] }

// AP returns A p (family member P[1]).
func (f *Families) AP() vec.Vector { return f.P[1] }
