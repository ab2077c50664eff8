// Package vec provides dense vector kernels used throughout the conjugate
// gradient solvers: dot products, axpy-style updates, norms, and fused
// multi-operation kernels.
//
// All kernels come in a serial form and, where profitable, a chunked
// parallel form driven by a shared worker pool (see Pool). The parallel
// forms exist both for wall-clock speed on multicore hosts and to mirror
// the data-parallel structure the paper assumes: elementwise operations
// are depth-1, reductions are depth-log(N).
//
// # Canonical blocked reductions
//
// Every reducing kernel (Dot, DotPair, FusedCGUpdate, PipeUpdate, Dots) is
// defined — not just implemented — as a fixed reduction tree over
// blocks of BlockLen elements: each block is accumulated by a 4-way
// unrolled leaf (four independent accumulator chains, so the CPU
// overlaps the floating-point adds), and block partials are combined by
// pairwise recursion whose shape depends only on the vector length. The
// serial kernels walk that tree directly; the pooled kernels compute
// the same leaves on worker goroutines and replay the same combine
// tree over the published block partials. The result is
// the substrate's core guarantee: serial and pooled reductions are
// BITWISE IDENTICAL for every worker count, so moving a solve on or
// off a Pool — or changing where a Pool's cutoffs sit — can never
// change a trajectory.
//
// DirectionSweep (sweep.go) composes the same pieces along a different
// axis: for one granule of a vector at a time it runs the elementwise
// update, the operator's row kernel and the dot leaves into the partials
// slab, then replays the combine — so the three steps between two of a
// CG iteration's inner products cross memory once, and return the bits
// of the three whole-vector calls.
//
// # Batches and combinations
//
// The two vector shapes the paper's schedules add to CG have a leaf each.
// Dots(out, xs, ys, part): out[i] is exactly Dot(xs[i], ys[i]) — the same
// four chains per block, the same combine, over partials in the caller's
// slab — taken a stretch of every pair at a time, four pairs' chains in
// flight. Combine(dst, init, coef, xs): dst[i] = ((init[i] + c0*x0[i]) +
// c1*x1[i]) + ..., from +0 without init, zero coefficients skipped — Axpy
// after Axpy with one load per term and one store. Both are the same bits
// serial and pooled.
//
// # The pipelined update
//
// A Ghysels–Vanroose iteration has one more shape: six recurrences and
// the two inner products of their results, with nothing between them to
// wait for. PipeUpdate(alpha, beta, r, w, n, p, s, q, x) is that stretch
// in one pass — p = r + beta*p, s = w + beta*s, q = n + beta*q,
// x += alpha*p, r += (-alpha)*s, w += (-alpha)*q — over seven distinct,
// equal-length, non-overlapping operands, each loaded once and stored
// once (n is only read). It returns <r,r> and <w,r> of the new r, w: the
// bits of Xpay three times, Axpy three times (all skipped when alpha is
// ±0, as Axpy skips) and DotPair(r, r, w) — DotPair's two chains per
// sum and block, its combine over blocks — and leaves in every operand
// the bits those calls leave.
//
// # Leaf bodies
//
// The loops at the bottom — dotLeaf, dotPairLeaf, fusedCGLeaf, the leaf
// of PipeUpdate, Axpy, Xpay, Scale, dotsRange and combineRange here, the
// row kernel of sparse.DIA (DIARows) and the run kernel of TriSweep —
// have two bodies each. The Go body (dotLeafGo, axpyGo, ...) is the
// definition, the reference the tests compare against, and the only
// path off amd64; gc never vectorizes it. On amd64 with AVX2 the
// assembly body in kernels_amd64.s runs instead, chosen once at init
// from CPUID (see Kernels), and returns the same bits: chain j of a
// leaf is lane j of one register, products and sums are separate
// instructions (no fused multiply-add), a short tail goes element by
// element into lane 0. Every length check and slice expression runs in
// Go before the call. Under the race detector the Go bodies run, since
// assembly is invisible to it — so `go test -race` and `go test` each
// exercise one set. The equality rests on gc compiling s += a*b to a
// separate multiply and add on amd64, which go1.24 does at every
// GOAMD64 level (it fuses on arm64, ppc64le, s390x, riscv64 — where
// there is no assembly body); should a toolchain start fusing there,
// TestLeafKernelsBitwise reports it.
package vec

import (
	"errors"
	"fmt"
	"math"
)

// ErrLength reports a length mismatch between vector operands.
var ErrLength = errors.New("vec: operand length mismatch")

// Vector is a dense column vector of float64 components. It is a type
// alias, not a defined type, so the public packages (solve, sparse) can
// state their interfaces on plain []float64 while every internal kernel
// keeps reading vec.Vector: the two spellings are interchangeable
// everywhere, with no conversions at the API boundary.
type Vector = []float64

// New returns a zero vector of length n.
func New(n int) Vector { return make(Vector, n) }

// NewFrom returns a vector holding a copy of the given components.
func NewFrom(data []float64) Vector {
	v := make(Vector, len(data))
	copy(v, data)
	return v
}

// Clone returns an independent copy of v.
func Clone(v Vector) Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Zero sets every component of v to zero in place.
func Zero(v Vector) {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every component of v to c in place.
func Fill(v Vector, c float64) {
	for i := range v {
		v[i] = c
	}
}

// Copy copies src into dst. The lengths must match (unlike the built-in
// copy, which silently truncates).
func Copy(dst, src Vector) {
	mustSameLen2(len(dst), len(src))
	copy(dst, src)
}

// Equal reports whether v and w have identical length and components.
func Equal(v, w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// EqualTol reports whether v and w agree componentwise within absolute
// tolerance tol.
func EqualTol(v, w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// String renders short vectors fully and long vectors abbreviated.
func String(v Vector) string {
	const maxShow = 8
	if len(v) <= maxShow {
		return fmt.Sprintf("%v", v)
	}
	return fmt.Sprintf("[%v ... %v len=%d]", v[:4], v[len(v)-2:], len(v))
}

func mustSameLen2(a, b int) {
	if a != b {
		panic(fmt.Sprintf("vec: length mismatch %d vs %d", a, b))
	}
}

func mustSameLen3(a, b, c int) {
	if a != b || b != c {
		panic(fmt.Sprintf("vec: length mismatch %d vs %d vs %d", a, b, c))
	}
}

// BlockLen is the leaf size of the canonical reduction tree: reducing
// kernels accumulate BlockLen-element blocks with 4-way unrolled
// independent chains and combine block partials pairwise. It is the
// unit the Pool aligns its chunk boundaries to, which is what makes
// pooled reductions bitwise identical to the serial kernels. Two
// BlockLen operand slices fit comfortably in L1.
const BlockLen = 1024

// nblocks returns the number of reduction-tree leaves for an n-element
// kernel (the last leaf may be short).
func nblocks(n int) int { return (n + BlockLen - 1) / BlockLen }

// treeMid returns the canonical split point of an n-element reduction:
// half the blocks (rounded down), in elements. Both the serial
// recursion and the pooled block-partial combine split here, which is
// what keeps their trees congruent.
func treeMid(n int) int { return nblocks(n) / 2 * BlockLen }

// dotLeaf accumulates <x, y> over one block (len(x) <= BlockLen) with
// four independent accumulator chains, combined as (s0+s1)+(s2+s3).
// dotLeafGo is that definition; the assembly body holds the four chains
// in the four lanes of one register and returns the same bits.
func dotLeaf(x, y []float64) float64 {
	if useAVX2 {
		return dotLeafAVX2(x, y[:len(x)])
	}
	return dotLeafGo(x, y)
}

func dotLeafGo(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// dotTree evaluates the canonical reduction tree over x, y.
func dotTree(x, y []float64) float64 {
	n := len(x)
	if n <= BlockLen {
		return dotLeaf(x, y)
	}
	mid := treeMid(n)
	return dotTree(x[:mid], y[:mid]) + dotTree(x[mid:], y[mid:])
}

// combineTree replays the canonical combine over precomputed block
// partials: it is dotTree with the leaves already evaluated, so a
// pooled reduction that fills part from worker goroutines reproduces
// the serial result bit for bit.
func combineTree(part []float64) float64 {
	if len(part) == 1 {
		return part[0]
	}
	mid := len(part) / 2
	return combineTree(part[:mid]) + combineTree(part[mid:])
}

// Dot returns the inner product <x, y>.
func Dot(x, y Vector) float64 {
	mustSameLen2(len(x), len(y))
	if len(x) == 0 {
		return 0
	}
	return dotTree(x, y)
}

// Norm2 returns the Euclidean norm of x, guarding against overflow for
// large components by scaling.
func Norm2(x Vector) float64 {
	var scale, ssq float64
	ssq = 1
	for _, xi := range x {
		if xi == 0 {
			continue
		}
		a := math.Abs(xi)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		// No entry raised scale: all zeros (ssq is 1, the norm 0) or
		// NaNs among zeros (a NaN leaves scale at 0 and makes ssq NaN).
		return 0 * ssq
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y Vector) {
	mustSameLen2(len(x), len(y))
	if alpha == 0 {
		return
	}
	if !useAVX2 {
		axpyGo(alpha, x, y)
		return
	}
	for ; len(x) > asmChunk; x, y = x[asmChunk:], y[asmChunk:] {
		axpyAVX2(alpha, x[:asmChunk], y[:asmChunk])
	}
	axpyAVX2(alpha, x, y)
}

func axpyGo(alpha float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// AxpyTo computes dst = y + alpha*x without touching the operands.
func AxpyTo(dst Vector, alpha float64, x, y Vector) {
	mustSameLen3(len(dst), len(x), len(y))
	for i := range x {
		dst[i] = y[i] + alpha*x[i]
	}
}

// Xpay computes y = x + alpha*y in place (the CG direction update
// p = r + beta*p).
func Xpay(x Vector, alpha float64, y Vector) {
	mustSameLen2(len(x), len(y))
	if !useAVX2 {
		xpayGo(x, alpha, y)
		return
	}
	for ; len(x) > asmChunk; x, y = x[asmChunk:], y[asmChunk:] {
		xpayAVX2(x[:asmChunk], alpha, y[:asmChunk])
	}
	xpayAVX2(x, alpha, y)
}

func xpayGo(x []float64, alpha float64, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] = x[i] + alpha*y[i]
		y[i+1] = x[i+1] + alpha*y[i+1]
		y[i+2] = x[i+2] + alpha*y[i+2]
		y[i+3] = x[i+3] + alpha*y[i+3]
	}
	for ; i < n; i++ {
		y[i] = x[i] + alpha*y[i]
	}
}

// Scale multiplies every component of x by alpha in place.
func Scale(alpha float64, x Vector) {
	if !useAVX2 {
		scaleGo(alpha, x)
		return
	}
	for ; len(x) > asmChunk; x = x[asmChunk:] {
		scaleAVX2(alpha, x[:asmChunk])
	}
	scaleAVX2(alpha, x)
}

func scaleGo(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// ScaleTo computes dst = alpha*x.
func ScaleTo(dst Vector, alpha float64, x Vector) {
	mustSameLen2(len(dst), len(x))
	for i := range x {
		dst[i] = alpha * x[i]
	}
}

// Add computes dst = x + y.
func Add(dst, x, y Vector) {
	mustSameLen3(len(dst), len(x), len(y))
	for i := range x {
		dst[i] = x[i] + y[i]
	}
}

// Sub computes dst = x - y.
func Sub(dst, x, y Vector) {
	mustSameLen3(len(dst), len(x), len(y))
	for i := range x {
		dst[i] = x[i] - y[i]
	}
}

// MulElem computes dst = x .* y componentwise.
func MulElem(dst, x, y Vector) {
	mustSameLen3(len(dst), len(x), len(y))
	n := len(x)
	y = y[:n]
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = x[i] * y[i]
		dst[i+1] = x[i+1] * y[i+1]
		dst[i+2] = x[i+2] * y[i+2]
		dst[i+3] = x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		dst[i] = x[i] * y[i]
	}
}

// Combine computes dst[i] = ((init[i] + coef[0]*xs[0][i]) + coef[1]*xs[1][i])
// + ..., from +0 when init is nil, a zero coefficient skipped as Axpy
// skips it: the bits of Copy (or Zero) and one Axpy per term, with each
// operand loaded and dst stored once. dst may be init or any xs[j]
// itself, never a shifted overlap of one.
func Combine(dst, init Vector, coef []float64, xs []Vector) {
	checkCombine(dst, init, coef, xs)
	combineRange(dst, init, coef, xs, 0, len(dst))
}

func checkCombine(dst, init Vector, coef []float64, xs []Vector) {
	if len(coef) != len(xs) {
		panic(fmt.Sprintf("vec: %d coefficients for %d vectors", len(coef), len(xs)))
	}
	if init != nil {
		mustSameLen2(len(dst), len(init))
	}
	for _, x := range xs {
		mustSameLen2(len(dst), len(x))
	}
}

// combineRange is Combine over elements [lo, hi). combineGo is the
// definition; the assembly body takes four blocks a call (see asmChunk;
// its work grows with the terms).
func combineRange(dst, init Vector, coef []float64, xs []Vector, lo, hi int) {
	if !useAVX2 || len(xs) == 0 {
		combineGo(dst, init, coef, xs, lo, hi)
		return
	}
	_ = coef[len(xs)-1]
	for ; lo < hi; lo += 4 * BlockLen {
		combineAVX2(dst[lo:min(hi, lo+4*BlockLen)], init, &coef[0], xs, lo)
	}
}

func combineGo(dst, init Vector, coef []float64, xs []Vector, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		if init != nil {
			s = init[i]
		}
		for j, x := range xs {
			if c := coef[j]; c != 0 {
				s += c * x[i]
			}
		}
		dst[i] = s
	}
}

// FusedCGUpdate performs the three fused vector updates of one CG step:
//
//	x += alpha*p;  r -= alpha*ap;  returns <r,r> of the updated residual.
//
// Fusing them keeps a single pass over memory, which is how a depth-1
// elementwise phase followed by one reduction would be scheduled on the
// machine the paper assumes.
func FusedCGUpdate(alpha float64, p, ap, x, r Vector) float64 {
	mustSameLen2(len(p), len(ap))
	mustSameLen2(len(p), len(x))
	mustSameLen2(len(p), len(r))
	if len(p) == 0 {
		return 0
	}
	return fusedCGTree(alpha, p, ap, x, r)
}

// fusedCGLeaf performs the fused update over one block and returns its
// <r, r> partial with the canonical 4-chain accumulation.
func fusedCGLeaf(alpha float64, p, ap, x, r []float64) float64 {
	if useAVX2 {
		n := len(p)
		return fusedCGLeafAVX2(alpha, p, ap[:n], x[:n], r[:n])
	}
	return fusedCGLeafGo(alpha, p, ap, x, r)
}

func fusedCGLeafGo(alpha float64, p, ap, x, r []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(p)
	ap = ap[:n]
	x = x[:n]
	r = r[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x[i] += alpha * p[i]
		x[i+1] += alpha * p[i+1]
		x[i+2] += alpha * p[i+2]
		x[i+3] += alpha * p[i+3]
		r0 := r[i] - alpha*ap[i]
		r1 := r[i+1] - alpha*ap[i+1]
		r2 := r[i+2] - alpha*ap[i+2]
		r3 := r[i+3] - alpha*ap[i+3]
		r[i] = r0
		r[i+1] = r1
		r[i+2] = r2
		r[i+3] = r3
		s0 += r0 * r0
		s1 += r1 * r1
		s2 += r2 * r2
		s3 += r3 * r3
	}
	for ; i < n; i++ {
		x[i] += alpha * p[i]
		ri := r[i] - alpha*ap[i]
		r[i] = ri
		s0 += ri * ri
	}
	return (s0 + s1) + (s2 + s3)
}

// fusedCGTree is the canonical reduction tree of FusedCGUpdate; the
// elementwise updates commute, so only the <r,r> combine order matters.
func fusedCGTree(alpha float64, p, ap, x, r []float64) float64 {
	n := len(p)
	if n <= BlockLen {
		return fusedCGLeaf(alpha, p, ap, x, r)
	}
	mid := treeMid(n)
	left := fusedCGTree(alpha, p[:mid], ap[:mid], x[:mid], r[:mid])
	return left + fusedCGTree(alpha, p[mid:], ap[mid:], x[mid:], r[mid:])
}

// DotPair computes <x,y> and <x,z> in a single pass. The restructured CG
// algorithms batch inner products so the machine model can merge their
// reductions into one fan-in; the sequential kernels mirror that batching.
func DotPair(x, y, z Vector) (xy, xz float64) {
	mustSameLen3(len(x), len(y), len(z))
	if len(x) == 0 {
		return 0, 0
	}
	return dotPairTree(x, y, z)
}

// dotPairLeaf accumulates <x,y> and <x,z> over one block with two
// independent chains per sum (the three-operand traffic leaves less
// headroom than Dot's four).
func dotPairLeaf(x, y, z []float64) (xy, xz float64) {
	if useAVX2 {
		n := len(x)
		return dotPairLeafAVX2(x, y[:n], z[:n])
	}
	return dotPairLeafGo(x, y, z)
}

func dotPairLeafGo(x, y, z []float64) (xy, xz float64) {
	var a0, a1, b0, b1 float64
	n := len(x)
	y = y[:n]
	z = z[:n]
	i := 0
	for ; i+2 <= n; i += 2 {
		a0 += x[i] * y[i]
		a1 += x[i+1] * y[i+1]
		b0 += x[i] * z[i]
		b1 += x[i+1] * z[i+1]
	}
	for ; i < n; i++ {
		a0 += x[i] * y[i]
		b0 += x[i] * z[i]
	}
	return a0 + a1, b0 + b1
}

func dotPairTree(x, y, z []float64) (xy, xz float64) {
	n := len(x)
	if n <= BlockLen {
		return dotPairLeaf(x, y, z)
	}
	mid := treeMid(n)
	ly, lz := dotPairTree(x[:mid], y[:mid], z[:mid])
	ry, rz := dotPairTree(x[mid:], y[mid:], z[mid:])
	return ly + ry, lz + rz
}

// PipeUpdate is everything a Ghysels–Vanroose iteration does between its
// product n = A·w and its reduction, in one pass:
//
//	p = r + beta*p;  s = w + beta*s;  q = n + beta*q
//	x += alpha*p;    r += (-alpha)*s; w += (-alpha)*q
//
// returning <r,r> and <w,r> of the new r, w. The package comment states
// the contract: which calls' bits these are, and what the seven operands
// must be.
func PipeUpdate(alpha, beta float64, r, w, n, p, s, q, x Vector) (rr, wr float64) {
	m := len(r)
	mustSameLen3(m, len(w), len(n))
	mustSameLen3(m, len(p), len(s))
	mustSameLen3(m, len(q), len(x))
	if alpha == 0 {
		Xpay(r, beta, p)
		Xpay(w, beta, s)
		Xpay(n, beta, q)
		return DotPair(r, r, w)
	}
	return pipeTree(alpha, beta, r, w, n, p, s, q, x, 0, m)
}

// pipeTree is dotPairTree's recursion over elements [lo, hi).
func pipeTree(alpha, beta float64, r, w, n, p, s, q, x []float64, lo, hi int) (rr, wr float64) {
	if hi-lo > BlockLen {
		mid := lo + treeMid(hi-lo)
		lr, lw := pipeTree(alpha, beta, r, w, n, p, s, q, x, lo, mid)
		hr, hw := pipeTree(alpha, beta, r, w, n, p, s, q, x, mid, hi)
		return lr + hr, lw + hw
	}
	r, w, n, p, s, q, x = r[lo:hi], w[lo:hi], n[lo:hi], p[lo:hi], s[lo:hi], q[lo:hi], x[lo:hi]
	if useAVX2 {
		return pipeLeafAVX2(alpha, beta, r, w, n, p, s, q, x)
	}
	return pipeLeafGo(alpha, beta, r, w, n, p, s, q, x)
}

// pipeLeafGo is PipeUpdate over one block: dotPairLeafGo's two chains per
// sum, fed by the elements as they are stored.
func pipeLeafGo(alpha, beta float64, r, w, n, p, s, q, x []float64) (rr, wr float64) {
	var a, b [2]float64
	na := -alpha
	m := len(r)
	w, n, p, s, q, x = w[:m], n[:m], p[:m], s[:m], q[:m], x[:m]
	for i := range r {
		pi := r[i] + beta*p[i]
		si := w[i] + beta*s[i]
		qi := n[i] + beta*q[i]
		p[i], s[i], q[i] = pi, si, qi
		x[i] += alpha * pi
		ri := r[i] + na*si
		wi := w[i] + na*qi
		r[i], w[i] = ri, wi
		a[i&1] += ri * ri
		b[i&1] += ri * wi
	}
	return a[0] + a[1], b[0] + b[1]
}

// Dots fills out[i] = <xs[i], ys[i]>, each exactly Dot's sum, in one pass
// over the operands: the leaf partials of every pair go to part — the
// caller's slab of at least len(out)*ceil(n/BlockLen) cells — and each
// pair's are combined as Dot combines them (see dotsRange).
func Dots(out []float64, xs, ys []Vector, part []float64) {
	n := dotsLen(out, xs, ys)
	if n == 0 {
		clear(out) // Dot of nothing
		return
	}
	nb := nblocks(n)
	part = part[:len(out)*nb]
	dotsRange(part, nb, xs, ys, 0, n)
	for i := range out {
		out[i] = combineTree(part[i*nb : (i+1)*nb])
	}
}

// dotsLen checks a batch of inner products, pair i (xs[i], ys[i]), and
// returns its length.
func dotsLen(out []float64, xs, ys []Vector) int {
	if m := len(xs); len(out) != m || len(ys) != m {
		panic(fmt.Sprintf("vec: %d outputs for %d and %d vectors", len(out), len(xs), len(ys)))
	}
	if len(out) == 0 {
		return 0
	}
	n := len(xs[0])
	for i := range xs {
		mustSameLen3(n, len(xs[i]), len(ys[i]))
	}
	return n
}

// The assembly body of a batch takes its pairs dotsPass at a time (the lane
// sums one frame holds) and each block dotsSub elements at a time: a
// stretch of every pair before the next, so a stretch of every operand (ten
// vectors: 20 KB) stays in L1 and is read there however many pairs it is in.
const (
	dotsPass = 32
	dotsSub  = 256
)

// dotsRange writes the leaf partial of pair i over each block b of
// [lo, hi) to part[i*stride+b]: the serial/pooled body of the batches.
// The Go body is dotLeafGo, pair by pair. The assembly body (dotsAccAVX2)
// runs the same chains in fours and leaves (s0+s1)+(s2+s3) to be taken
// here; one or two pairs over, or three alone, go to dotLeaf, which is
// measured no slower than a four with repeats in it.
func dotsRange(part []float64, stride int, xs, ys []Vector, lo, hi int) {
	m := len(xs)
	fours := m &^ 3
	if !useAVX2 {
		fours = 0
	} else if m%4 == 3 && m > 3 {
		fours = m
	}
	for i := fours; i < m; i++ {
		x, y := xs[i], ys[i]
		for b0 := lo; b0 < hi; b0 += BlockLen {
			b1 := min(hi, b0+BlockLen)
			part[i*stride+b0/BlockLen] = dotLeaf(x[b0:b1], y[b0:b1])
		}
	}
	if fours == 0 {
		return // before the frames below are zeroed
	}
	var ops [2 * dotsPass]*float64
	var acc [4 * dotsPass]float64
	for i0 := 0; i0 < fours; i0 += dotsPass {
		g := min(fours-i0, dotsPass)
		groups := (g + 3) / 4
		for j := 0; j < 4*groups; j++ { // a short last group repeats the last pair into spare sums
			k := i0 + min(j, g-1)
			x, y := xs[k], ys[k]
			ops[2*j], ops[2*j+1] = &x[0], &y[0]
		}
		for b0 := lo; b0 < hi; b0 += BlockLen {
			b1 := min(hi, b0+BlockLen)
			clear(acc[:16*groups])
			for s0 := b0; s0 < b1; s0 += dotsSub {
				dotsAccAVX2(&acc, &ops, groups, s0, min(b1, s0+dotsSub)-s0)
			}
			for j := 0; j < g; j++ {
				a := acc[4*j : 4*j+4]
				part[(i0+j)*stride+b0/BlockLen] = (a[0] + a[1]) + (a[2] + a[3])
			}
		}
	}
}

// Random fills v with reproducible pseudo-random components in [-1, 1)
// derived from seed using a SplitMix64 stream (no external dependencies,
// deterministic across platforms).
func Random(v Vector, seed uint64) {
	s := seed
	for i := range v {
		s = splitmix64(&s)
		// 53-bit mantissa to [0,1), then shift to [-1,1).
		v[i] = 2*float64(s>>11)/float64(1<<53) - 1
	}
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
