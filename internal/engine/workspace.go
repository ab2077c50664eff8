package engine

import (
	"math"
	"time"

	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/sparse"
)

// Workspace is the size-keyed vector arena every kernel draws from,
// plus the worker pool its kernels run on. Vectors are handed out by
// index (Vec) and grown lazily, so a warm workspace serves repeated
// solves against same-order operators with zero heap allocations; the
// history slab is likewise owned here and reused across solves.
//
// Because every SpMV, inner product and vector update a kernel performs
// goes through the workspace, it is also where a reduction is issued
// and awaited (reduce.go), where phase time is measured (TimePhases),
// and where the work is counted (Stats).
//
// Contract: vectors obtained from the arena — including the X field of
// a Result produced on it — are owned by the workspace and valid only
// until the next solve on it. A Workspace is not safe for concurrent
// solves; use one per goroutine (they are cheap).
type Workspace struct {
	pool *vec.Pool
	n    int

	vecs []vec.Vector
	// vecsN is the second, length-keyed arena (VecN): vectors whose
	// length differs from the system order — the rows-length residual
	// vectors of the rectangular least-squares kernels and the flat
	// Hessenberg/Givens scratch of GMRES(m). Each index keeps whatever
	// capacity its largest request needed, so warm repeated solves
	// allocate nothing here either.
	vecsN   []vec.Vector
	history []float64
	run     Run
	// stats counts the work of the solve in progress (Stats' convention);
	// mvFlops is what one of its products costs. Solve resets both and
	// publishes stats into Result.Stats.
	stats   Stats
	mvFlops int64

	// red holds the issue/await reduction job and, once a schedule has
	// overlapped one, the goroutines that run it (reduce.go).
	red      *bgReducer
	inFlight bool
	// block is the operator of the solve in progress when it is one row
	// block of a larger one (RowBlock), else nil; sums is the scratch its
	// scalar reductions are combined through.
	block RowBlock
	sums  [2]float64
	oneP  bool // the solve in progress runs on one P (see issue)
	// sweep is the operator of the solve in progress when Direction can
	// run it a range of rows at a time (a RowSweeper, on a serial
	// workspace, not a row block), else nil; part is the slab of block
	// partials its inner product and Dots' are combined from (slab), and
	// lapAt the phase clock's last reading inside the sweep.
	sweep RowSweeper
	part  []float64
	lapAt time.Duration

	// now is the phase clock, a monotonic reading; nil (the default)
	// means phase timing is off and no dispatch below reads a clock.
	now func() time.Duration
}

// NewWorkspace returns a workspace for order-n systems running its
// kernels on pool. A nil pool selects the serial kernels.
func NewWorkspace(n int, pool *vec.Pool) *Workspace {
	if n <= 0 {
		panic("engine: NewWorkspace requires n > 0")
	}
	return &Workspace{pool: pool, n: n}
}

// Pool returns the worker pool the workspace dispatches to (nil = serial).
func (ws *Workspace) Pool() *vec.Pool { return ws.pool }

// Dim returns the system order the workspace is sized for.
func (ws *Workspace) Dim() int { return ws.n }

// Vec returns the i-th arena vector, allocating it on first use. The
// same index always returns the same storage, so kernels name their
// vectors by fixed indices and reuse them across solves. Contents
// persist between solves; kernels must initialize what they read.
func (ws *Workspace) Vec(i int) vec.Vector {
	for len(ws.vecs) <= i {
		ws.vecs = append(ws.vecs, vec.New(ws.n))
	}
	return ws.vecs[i]
}

// VecN returns the i-th vector of the length-keyed arena, sized to
// length. Indices are independent of Vec's: VecN(0, m) and Vec(0) are
// different storage. The same index keeps its capacity across solves
// (growing only when a larger length is requested), so kernels that ask
// for the same shapes every solve allocate nothing in steady state.
// Contents persist between calls; kernels must initialize what they
// read.
func (ws *Workspace) VecN(i, length int) vec.Vector {
	for len(ws.vecsN) <= i {
		ws.vecsN = append(ws.vecsN, nil)
	}
	if cap(ws.vecsN[i]) < length {
		ws.vecsN[i] = vec.New(length)
	}
	return ws.vecsN[i][:length]
}

// Reserve eagerly allocates the first count arena vectors, so a
// constructor can keep every allocation out of the first solve —
// latency-sensitive callers build the workspace up front precisely to
// avoid paying it on the first request.
func (ws *Workspace) Reserve(count int) {
	if count > 0 {
		ws.Vec(count - 1)
	}
}

// TimePhases switches on phase timing: from the next solve, the time
// spent inside the dispatch methods below is accumulated per phase
// (MatVec* → spmv, Dot* and Await → reduction_wait, Axpy*/Xpay/
// FusedCGUpdate → update, Direction → all three, part by part: a sweep's
// leading update of the first lead elements → update, its rows — which
// carry the rest of the update inside the row kernel — → spmv, its leaf
// dots → reduction_wait) and the
// driver publishes one observation set per Step into Result.Phases. It
// costs a clock pair per call, which is why it is per workspace and off
// by default: the adapter enables it for the methods that publish
// phases.
func (ws *Workspace) TimePhases() {
	// time.Since reads only the monotonic clock: half the cost of a
	// time.Now per reading.
	epoch := time.Now()
	ws.now = func() time.Duration { return time.Since(epoch) }
}

// begin reads the phase clock when timing is on.
func (ws *Workspace) begin() (t0 time.Duration) {
	if ws.now != nil {
		t0 = ws.now()
	}
	return t0
}

// charge adds the time since t0 to phase p of the step in progress.
func (ws *Workspace) charge(p Phase, t0 time.Duration) {
	if ws.now != nil {
		ws.run.phaseTime[p] += ws.now() - t0
	}
}

// Pooled kernel dispatch: every hot-path vector operation a kernel
// performs goes through one of these, so pool routing, phase timing, the
// combination of a row block's sums and the count of the work are
// decided in exactly one place.

// dots counts m inner products of length-long operands.
func (ws *Workspace) dots(m, length int) {
	ws.stats.InnerProducts += m
	ws.stats.Flops += 2 * int64(m) * int64(length)
}

// updates counts m vector updates y = ±x + αy of length-long operands.
func (ws *Workspace) updates(m, length int) {
	ws.stats.VectorUpdates += m
	ws.stats.Flops += 2 * int64(m) * int64(length)
}

// product counts a product with the solve's operator.
func (ws *Workspace) product() {
	ws.stats.MatVecs++
	ws.stats.Flops += ws.mvFlops
}

// combine turns a row block's partial sums into the sums over every
// block, in place: one exchange, waited for. Without a block operator
// the sums are already whole.
func (ws *Workspace) combine(vals []float64) {
	if ws.block != nil {
		ws.block.PostSums(vals)
		ws.block.CollectSums(vals)
	}
}

// whole is combine for one sum.
func (ws *Workspace) whole(d float64) float64 {
	ws.sums[0] = d
	ws.combine(ws.sums[:1])
	return ws.sums[0]
}

// Dot returns <x, y> on the workspace pool.
func (ws *Workspace) Dot(x, y vec.Vector) float64 {
	ws.dots(1, len(x))
	t0 := ws.begin()
	d := ws.whole(ws.pool.Dot(x, y))
	ws.charge(PhaseReduction, t0)
	return d
}

// blocks is the number of reduction-tree leaves of an n-vector.
func blocks(n int) int { return (n + vec.BlockLen - 1) / vec.BlockLen }

// grown returns s, or a new slab if s has no room for need cells.
func grown(s []float64, need int) []float64 {
	if cap(s) < need {
		s = make([]float64, need)
	}
	return s[:cap(s)]
}

// slab returns ws.part with room for m arena inner products' block partials.
func (ws *Workspace) slab(m int) []float64 {
	ws.part = grown(ws.part, m*blocks(ws.n))
	return ws.part
}

// Dots fills out[i] = <xs[i], ys[i]> now — each inner product summed
// whole, exactly as Dot would — as one reduction (vec.Dots): one pass
// over the operands and, for a row block, one exchange.
func (ws *Workspace) Dots(out []float64, xs, ys []vec.Vector) {
	ws.dots(len(out), ws.n)
	t0 := ws.begin()
	ws.pool.Dots(out, xs, ys, ws.slab(len(out)))
	ws.combine(out)
	ws.charge(PhaseReduction, t0)
}

// DotPair returns <x, y> and <x, z> in one sweep.
func (ws *Workspace) DotPair(x, y, z vec.Vector) (xy, xz float64) {
	ws.dots(2, len(x))
	t0 := ws.begin()
	ws.sums[0], ws.sums[1] = ws.pool.DotPair(x, y, z)
	ws.combine(ws.sums[:])
	ws.charge(PhaseReduction, t0)
	return ws.sums[0], ws.sums[1]
}

// Norm2 returns ‖x‖₂; for a row block, the norm of the whole vector x
// is this block's rows of.
func (ws *Workspace) Norm2(x vec.Vector) float64 {
	ws.dots(1, len(x))
	t0 := ws.begin()
	nrm := ws.norm2(x)
	ws.charge(PhaseReduction, t0)
	return nrm
}

// norm2 is Norm2 uncounted and untimed: the solve loop's own checks.
func (ws *Workspace) norm2(x vec.Vector) float64 {
	if ws.block == nil {
		return vec.Norm2(x)
	}
	return math.Sqrt(ws.whole(ws.pool.Dot(x, x)))
}

// Axpy computes y += alpha*x.
func (ws *Workspace) Axpy(alpha float64, x, y vec.Vector) {
	ws.updates(1, len(x))
	t0 := ws.begin()
	ws.pool.Axpy(alpha, x, y)
	ws.charge(PhaseUpdate, t0)
}

// Combine computes dst = init + sum_j coef[j]*xs[j] in one pass
// (vec.Combine), which skips a zero coefficient: one update a term that
// runs.
func (ws *Workspace) Combine(dst, init vec.Vector, coef []float64, xs []vec.Vector) {
	terms := 0
	for _, c := range coef {
		if c != 0 {
			terms++
		}
	}
	ws.updates(terms, len(dst))
	t0 := ws.begin()
	ws.pool.Combine(dst, init, coef, xs)
	ws.charge(PhaseUpdate, t0)
}

// Xpay computes y = x + alpha*y.
func (ws *Workspace) Xpay(x vec.Vector, alpha float64, y vec.Vector) {
	ws.updates(1, len(x))
	t0 := ws.begin()
	ws.pool.Xpay(x, alpha, y)
	ws.charge(PhaseUpdate, t0)
}

// Scale computes x *= alpha.
func (ws *Workspace) Scale(alpha float64, x vec.Vector) {
	ws.stats.VectorUpdates++
	ws.stats.Flops += int64(len(x))
	t0 := ws.begin()
	vec.Scale(alpha, x)
	ws.charge(PhaseUpdate, t0)
}

// FusedCGUpdate performs x += alpha*p, r -= alpha*ap and returns the
// new <r, r> in one sweep. The sweep is charged to the update phase,
// its reduction included.
func (ws *Workspace) FusedCGUpdate(alpha float64, p, ap, x, r vec.Vector) float64 {
	ws.updates(2, len(x))
	ws.dots(1, len(r))
	t0 := ws.begin()
	rr := ws.whole(ws.pool.FusedCGUpdate(alpha, p, ap, x, r))
	ws.charge(PhaseUpdate, t0)
	return rr
}

// MatVec computes dst = A*x on the workspace pool when the operator
// supports pooled products.
func (ws *Workspace) MatVec(a sparse.Matrix, dst, x vec.Vector) {
	ws.product()
	t0 := ws.begin()
	sparse.PooledMulVec(a, ws.pool, dst, x)
	ws.charge(PhaseSpMV, t0)
}

// RowSweeper is an operator whose product can be taken a range of rows
// at a time, completing the pending update of its operand a lead ahead
// of the rows, and that knows how far ahead of a row it reads — what
// Direction needs to take the update, the product and the inner product
// in one pass. *sparse.DIA is; *sparse.CSR is not, so a solve reaches
// the capability through the tuned format or not at all, and a wrapper
// that embeds a CSR hides it. The interface keeps the format out of the
// engine, and lets a test substitute a wrapper for it.
type RowSweeper interface {
	// MulRows computes rows [lo, hi) of dst = A*x, writing dst[lo:hi]
	// only, each row exactly as MulVec computes it, after applying what
	// these rows owe of the pending update x ← src + beta·x (vec.Carry;
	// src nil: none) — a vec.SweepKernel.
	MulRows(lo, hi int, dst, x, src []float64, beta float64, lead int)
	// Reach is the largest col − row over the operator's entries: rows
	// [lo, hi) read no x at or past hi+Reach.
	Reach() int
}

// sweepPhase is the phase each part of a direction sweep is charged to:
// the leading update to update, as the Xpay it is; the rows, with the
// update the row kernel carries inside them, to spmv; the leaf dots to
// reduction.
var sweepPhase = [...]Phase{
	vec.SweepUpdate:  PhaseUpdate,
	vec.SweepProduct: PhaseSpMV,
	vec.SweepDots:    PhaseReduction,
}

// lap charges the time since the last reading to the phase of the sweep
// part that just finished.
func (ws *Workspace) lap(part vec.SweepPart) {
	now := ws.now()
	ws.run.phaseTime[sweepPhase[part]] += now - ws.lapAt
	ws.lapAt = now
}

// Direction is the stretch of an iteration between its two inner
// products: it completes the pending direction update p = src + beta*p
// (none when src is nil), forms ap = A*p and returns <p, ap>. When the
// operator is a RowSweeper that is one blocked sweep over memory
// (vec.DirectionSweep); otherwise — a pooled workspace, a row block, any
// other operator — it is Xpay, MatVec and Dot, in that order. The two
// return the same bits, so which one runs is decided by what the
// operator offers and by nothing else.
func (ws *Workspace) Direction(a sparse.Matrix, src vec.Vector, beta float64, p, ap vec.Vector) float64 {
	if ws.sweep == nil {
		if src != nil {
			ws.Xpay(src, beta, p)
		}
		ws.MatVec(a, ap, p)
		return ws.Dot(p, ap)
	}
	ws.product()
	ws.dots(1, len(p))
	if src != nil {
		ws.updates(1, len(p))
	}
	var lap func(vec.SweepPart)
	if ws.now != nil {
		ws.lapAt = ws.now()
		lap = ws.lap
	}
	return vec.DirectionSweep(ws.sweep.MulRows, ws.sweep.Reach(), src, beta, p, ap, ws.slab(1), lap)
}

// MatVecT computes dst = Aᵀ*x on the workspace pool when the operator
// supports pooled transpose products. Kernels obtain the operator from
// Run.AT, which the driver populates only when the (pre-tuning)
// operator supports transpose products at all.
func (ws *Workspace) MatVecT(a sparse.TransposeMulVec, dst, x vec.Vector) {
	ws.product()
	t0 := ws.begin()
	sparse.PooledMulVecT(a, ws.pool, dst, x)
	ws.charge(PhaseSpMV, t0)
}

// ApplyPrecond computes dst = M^{-1} r, routing pointwise
// preconditioners through the pool.
func (ws *Workspace) ApplyPrecond(m precond.Preconditioner, dst, r vec.Vector) {
	ws.stats.PrecondSolves++
	if ws.pool != nil {
		if pa, ok := m.(precond.PoolApplier); ok {
			pa.ApplyPool(ws.pool, dst, r)
			return
		}
	}
	m.Apply(dst, r)
}

// matVecFlops returns the flop cost charged for one product with a:
// 2*nnz for sparse operators, 2*n^2 for dense ones.
func matVecFlops(a sparse.Matrix) int64 {
	if sp, ok := a.(sparse.Sparse); ok {
		return 2 * int64(sp.NNZ())
	}
	n := int64(a.Dim())
	return 2 * n * n
}
