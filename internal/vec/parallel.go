package vec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool for chunked data-parallel vector kernels.
//
// Workers are persistent: the first parallel dispatch spawns workers-1
// long-lived goroutines that block on per-worker wake channels. Each
// kernel call publishes a job descriptor (an opcode plus operand slice
// headers) into pool-owned fields, wakes exactly the workers it needs,
// runs chunk 0 on the calling goroutine, and waits for completion
// signals. No goroutines are spawned and no closures are created per
// call, and the per-block partial slabs are reused across calls, so a
// kernel dispatch performs zero heap allocations in steady state.
//
// Reductions follow the package's canonical blocked tree (see the
// package comment): chunk boundaries are aligned to BlockLen, workers
// publish per-block leaf partials into a reused slab (chunks start on
// separate cache lines at sizes where it matters, so workers never
// contend on a line), and the caller replays the fixed pairwise combine
// over the slab. The combine shape depends only on the vector length —
// never on the worker count — so pooled reductions are bitwise
// identical to the serial kernels.
//
// Whether a kernel parallelizes at all is the pool's decision alone, made
// from the input size against a fixed per-opcode cutoff (defaultCutoffs):
// the minimum total element (or nonzero) count at which handing work to
// other cores beats running the serial kernel in place. Nothing measures
// or moves a cutoff after construction.
//
// A single Pool serializes its kernels behind an internal mutex: one
// parallel kernel runs at a time, and concurrent callers queue. This is
// the natural contract for an iterative solver (kernels are data
// dependent anyway); independent solvers wanting concurrent parallelism
// should each own a Pool.
//
// A nil *Pool is the serial pool: every method runs the serial kernel
// (or, for the row and CSR products, returns false so the caller does),
// Workers is 1 and Close does nothing. A Pool with Workers == 1 behaves
// the same and never spawns goroutines. The zero value is not usable;
// construct with NewPool.
type Pool struct {
	workers  int
	minChunk int         // granularity floor, fixed at construction
	cut      [nOps]int64 // per-opcode parallel cutoff in elements (nnz for the CSR products)
	closed   atomic.Bool

	mu    sync.Mutex // serializes dispatches; held while workers run
	start sync.Once  // spawns the persistent workers lazily

	wake []chan struct{} // wake[c] wakes the worker owning chunk c (c >= 1)
	done chan struct{}   // workers signal chunk completion

	// Current job. Valid only between begin*() and end() under mu.
	job     job
	nchunks int
	bounds  []int // chunk boundaries: nchunks+1 offsets

	boundsSlab []int     // backing array reused by equal splits
	blockPart  []float64 // per-block reduction partials (reused)
	blockPart2 []float64 // second partial set (DotPair)
	batchPart  []float64 // Dots/DotBlock partials, one padded stride per pair
	batchCap   int       // per-pair stride of batchPart
}

// lineBlocks is the number of BlockLen blocks whose partials share one
// 64-byte cache line (8 float64 cells). At sizes where parallelism
// pays, chunk boundaries are aligned to lineBlocks*BlockLen elements so
// each worker's slab cells occupy distinct lines — no false sharing on
// the reduction slab.
const lineBlocks = 8

// opcode selects the kernel a worker executes over its chunk. Dispatch
// is opcode-based rather than closure-based so publishing a job never
// allocates: operand slice headers are copied into the pool's job field.
type opcode uint8

const (
	opNone opcode = iota
	opDot
	opDotPair
	opAxpy
	opXpay
	opMulElem
	opFusedCG
	opCSRMulVec
	opRowRange
	opDotBlock
	opAxpyBlock
	opCSRMulVecs
	nOps = iota
)

// defaultCutoffs are the fixed crossovers every pool dispatches by. They
// are deliberately high: a pooled kernel that dispatches below its true
// crossover loses integer factors to wakeup latency (the old single
// global minChunk of 4096 made pooled dots up to 20x slower than
// serial), while one that stays serial a bit too long loses a few
// percent at worst. Reductions pay a wakeup plus a combine, so they
// need the most length; elementwise streams are pure bandwidth and
// amortize faster; the batched kernels amortize one dispatch over every
// pair's sweep.
//
// The kernels with assembly leaves (kernels_amd64.s) sit a factor of
// four above where they were set against the Go leaves — 1<<16 for dot,
// 1<<15 for axpy/xpay/fusedcg, 1<<14 for the batched ones: the serial
// side got 2.3-4.7x faster per element (BenchmarkLeaf), a wake-up did
// not. dotpair's two-lane leaf gained 1.2-1.7x and moves by two. Five
// runs of the crossover sweep this package used to carry (each kernel
// timed serial and force-pooled from 1<<13 to 1<<20) on fresh 2-worker
// pools with the assembly leaves, on the 2-core shared box the BENCH
// files come from, put the crossovers (median of five; "never" = no win
// up to 1<<20) at
//
//	dot 1<<20 (1<<18 .. never)      axpy 1<<19 (1<<19 .. 1<<20)
//	dotpair 1<<19 (1<<18 .. 1<<20)  xpay 1<<20 (1<<19 .. 1<<20)
//	fusedcg 1<<19 (1<<18 .. 1<<19)  dotbatch 1<<18 (1<<18 .. 1<<19)
//	dotblock 1<<17 (1<<14 .. 1<<18) axpyblock 1<<18 (1<<18 .. 1<<19)
//
// every one of them above its default, old or new. The defaults stop
// short of those medians on purpose: the second core of that box is
// shared (five runs on the Go leaves the same hour have a median of
// "never" for every opcode), and the factor the serial leaf gained is
// the part of the shift that carries over to other machines. That
// spread is why the sweep is gone: which crossover a process measured
// depended on the mode it drew, not on the machine. Where the Go leaves
// run the values are only more conservative. mulelem, the CSR products
// and rowrange have no assembly body and keep their values.
var defaultCutoffs = [nOps]int64{
	opDot:       1 << 18,
	opDotPair:   1 << 17,
	opAxpy:      1 << 17,
	opXpay:      1 << 17,
	opMulElem:   1 << 15,
	opFusedCG:   1 << 17,
	opCSRMulVec: 1 << 15, // in nonzeros
	opRowRange:  1 << 15, // in rows
	// The block multi-RHS kernels amortize one dispatch over s (or s^2)
	// operand sweeps, so they cross over earlier.
	opDotBlock:   1 << 16,
	opAxpyBlock:  1 << 16,
	opCSRMulVecs: 1 << 15, // in nonzeros (shared across the s outputs)
}

// job carries the operands of the in-flight kernel. Slice fields are
// headers into caller-owned storage; they are cleared at end() so the
// pool never retains caller memory between calls.
type job struct {
	op    opcode
	alpha float64
	x     []float64
	y     []float64
	z     []float64
	w     []float64
	ys    []Vector
	// ds is the second vector set of the block multi-RHS kernels
	// (destinations for opAxpyBlock/opCSRMulVecs, the right-hand operands
	// of the batched inner products, paired with ys as cross says).
	ds    []Vector
	cross bool
	// CSR SpMV operands (row-partitioned; see CSRMulVec).
	rowPtr []int
	colIdx []int32
	vals   []float64
	// fn is the row-range kernel of RowMulVec. Callers pass a cached
	// function value (not a fresh closure) so dispatch stays
	// allocation-free.
	fn RowKernel
}

// RowKernel computes range [lo, hi) of dst = A*x for a row-partitioned
// operator. For RowMulVec the range is rows and implementations write
// dst[lo:hi] only; for RowMulVecBounds the caller defines the units
// (e.g. SELL chunks) and implementations must write a set of dst
// elements disjoint from every other range's, so ranges can run
// concurrently. All of x may be read.
type RowKernel func(lo, hi int, dst, x Vector)

// DefaultPool uses all available CPUs.
var DefaultPool = NewPool(runtime.GOMAXPROCS(0))

// defaultMinChunk is the granularity floor of a pool from NewPool: the
// smallest per-worker slice length a parallel dispatch hands a worker.
const defaultMinChunk = 4096

// NewPool returns a pool using the given number of workers (at least 1)
// that dispatches by defaultCutoffs.
func NewPool(workers int) *Pool {
	return NewPoolMinChunk(workers, defaultMinChunk)
}

// NewPoolMinChunk returns a pool with an explicit minimum per-worker
// chunk length. A minChunk below the default also lowers every per-op
// cutoff to 2*minChunk (clamped to two reduction blocks, so reduction
// chunk boundaries stay BlockLen-aligned): the seam tests use to force
// tiny kernels onto the parallel path. A larger minChunk only coarsens
// chunk granularity.
func NewPoolMinChunk(workers, minChunk int) *Pool {
	minChunk = max(minChunk, 1)
	p := &Pool{workers: max(workers, 1), minChunk: minChunk, cut: defaultCutoffs}
	if minChunk < defaultMinChunk {
		c := max(int64(2*minChunk), 2*BlockLen)
		for op := opNone + 1; op < nOps; op++ {
			p.cut[op] = c
		}
	}
	return p
}

// Fork returns a new pool of the given number of workers that dispatches
// exactly as p does: the same cutoffs and chunk floor. A fork of the
// serial (nil) pool is the serial pool.
func (p *Pool) Fork(workers int) *Pool {
	if p == nil {
		return nil
	}
	f := NewPool(workers)
	f.minChunk, f.cut = p.minChunk, p.cut
	return f
}

// Workers returns the configured worker count (1 for the nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// SpMVParts is the question a sparse product asks before it partitions
// its rows: how many parts to cut for this pool, or 0 when a product over
// nnz stored entries runs serially — a nil, serial or closed pool, or nnz
// below the SpMV cutoff. The pooled products decline those cases
// themselves; asking first spares the partition.
func (p *Pool) SpMVParts(nnz int) int {
	if p == nil || p.workers < 2 || p.closed.Load() || int64(nnz) < p.cut[opCSRMulVec] {
		return 0
	}
	return p.workers
}

// Close stops the persistent workers. Subsequent kernel calls fall back
// to the serial forms. Close is intended for tests and short-lived
// pools; long-lived pools (DefaultPool) never need it.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Swap(true) {
		return
	}
	for _, ch := range p.wake {
		if ch != nil {
			close(ch)
		}
	}
}

// ensureWorkers lazily spawns the persistent workers. Called under mu.
func (p *Pool) ensureWorkers() {
	p.start.Do(func() {
		w := p.workers
		p.wake = make([]chan struct{}, w)
		p.done = make(chan struct{}, w)
		p.boundsSlab = make([]int, w+1)
		for c := 1; c < w; c++ {
			p.wake[c] = make(chan struct{}, 1)
			go p.workerLoop(c)
		}
	})
}

// workerLoop is the body of persistent worker c: sleep on the wake
// channel, execute the published job's chunk c, signal completion.
func (p *Pool) workerLoop(c int) {
	for range p.wake[c] {
		p.exec(c)
		p.done <- struct{}{}
	}
}

// growSlabs sizes the reduction slab for an n-element kernel. Called
// under mu; allocates only when n exceeds every earlier dispatch.
func (p *Pool) growSlabs(n int, pair bool) {
	nb := nblocks(n)
	if cap(p.blockPart) < nb {
		p.blockPart = make([]float64, nb)
	}
	p.blockPart = p.blockPart[:nb]
	if pair {
		if cap(p.blockPart2) < nb {
			p.blockPart2 = make([]float64, nb)
		}
		p.blockPart2 = p.blockPart2[:nb]
	}
}

// growBatchSlab sizes the batch slab: one stride of block partials per
// pair, strides padded to whole cache lines so worker boundary cells
// never share a line across pairs.
func (p *Pool) growBatchSlab(n, pairs int) {
	nb := nblocks(n)
	stride := (nb + lineBlocks - 1) / lineBlocks * lineBlocks
	if cap(p.batchPart) < stride*pairs {
		p.batchPart = make([]float64, stride*pairs)
	}
	p.batchPart = p.batchPart[:stride*pairs]
	p.batchCap = stride
}

// planParts returns how many chunks an n-element kernel should use and
// the boundary alignment (0 parts means: run serially). Boundaries are
// aligned to BlockLen so pooled reduction leaves coincide with the
// serial tree's; once every worker has at least a cache line's worth of
// partial cells, alignment widens to lineBlocks*BlockLen so slab cells
// are line-private per worker.
func (p *Pool) planParts(n int) (parts, align int) {
	align = BlockLen
	if n >= p.workers*lineBlocks*BlockLen {
		align = lineBlocks * BlockLen
	}
	floor := align
	if mc := p.minChunk; mc > floor {
		floor = (mc + align - 1) / align * align
	}
	parts = p.workers
	if u := n / floor; parts > u {
		parts = u
	}
	return parts, align
}

// beginEqual plans a block-aligned near-equal split of [0, n) for op
// and acquires the dispatch lock. It returns the chunk count, or 0
// (lock not held) when the kernel should run serially: a nil, serial or
// closed pool, n below the op's cutoff, or too little work per worker.
func (p *Pool) beginEqual(op opcode, n int) int {
	if p == nil || p.workers < 2 || p.closed.Load() || int64(n) < p.cut[op] {
		return 0
	}
	parts, align := p.planParts(n)
	if parts < 2 {
		return 0
	}
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return 0
	}
	p.ensureWorkers()
	units := n / align
	b := p.boundsSlab[:parts+1]
	for i := 0; i < parts; i++ {
		b[i] = i * units / parts * align
	}
	b[parts] = n
	p.bounds = b
	p.nchunks = parts
	return parts
}

// beginBounds plans a dispatch over caller-provided chunk boundaries
// (len(bounds)-1 chunks, e.g. an nnz-balanced CSR row partition) and
// acquires the dispatch lock. It returns the chunk count, or 0 (lock
// not held) when the pool is nil or closed, size is below op's cutoff,
// or the partition does not fit this pool.
func (p *Pool) beginBounds(op opcode, size int, bounds []int) int {
	nc := len(bounds) - 1
	if p == nil || nc < 2 || nc > p.workers || p.closed.Load() || int64(size) < p.cut[op] {
		return 0
	}
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return 0
	}
	p.ensureWorkers()
	p.bounds = bounds
	p.nchunks = nc
	return nc
}

// run wakes workers 1..nc-1, executes chunk 0 inline, and waits for the
// workers to finish.
func (p *Pool) run(nc int) {
	for c := 1; c < nc; c++ {
		p.wake[c] <- struct{}{}
	}
	p.exec(0)
	for c := 1; c < nc; c++ {
		<-p.done
	}
}

// end clears the job (so caller memory is not retained) and releases
// the dispatch lock.
func (p *Pool) end() {
	p.job = job{}
	p.bounds = nil
	p.nchunks = 0
	p.mu.Unlock()
}

// leaves evaluates one reduction leaf per BlockLen block of [lo, hi),
// writing each partial to its global block cell. Chunk bounds are
// BlockLen-aligned, so the only short leaf is the vector's last block —
// exactly as in the serial tree.
func (p *Pool) leaves(lo, hi int, leaf func(b0, b1, cell int)) {
	for b0 := lo; b0 < hi; b0 += BlockLen {
		b1 := b0 + BlockLen
		if b1 > hi {
			b1 = hi
		}
		leaf(b0, b1, b0/BlockLen)
	}
}

// exec runs the published job's chunk c.
func (p *Pool) exec(c int) {
	lo, hi := p.bounds[c], p.bounds[c+1]
	j := &p.job
	switch j.op {
	case opDot:
		x, y := j.x, j.y
		for b0 := lo; b0 < hi; b0 += BlockLen {
			b1 := b0 + BlockLen
			if b1 > hi {
				b1 = hi
			}
			p.blockPart[b0/BlockLen] = dotLeaf(x[b0:b1], y[b0:b1])
		}
	case opDotPair:
		x, y, z := j.x, j.y, j.z
		for b0 := lo; b0 < hi; b0 += BlockLen {
			b1 := b0 + BlockLen
			if b1 > hi {
				b1 = hi
			}
			xy, xz := dotPairLeaf(x[b0:b1], y[b0:b1], z[b0:b1])
			p.blockPart[b0/BlockLen] = xy
			p.blockPart2[b0/BlockLen] = xz
		}
	case opAxpy:
		Axpy(j.alpha, j.x[lo:hi], j.y[lo:hi])
	case opXpay:
		Xpay(j.x[lo:hi], j.alpha, j.y[lo:hi])
	case opMulElem:
		MulElem(j.z[lo:hi], j.x[lo:hi], j.y[lo:hi])
	case opFusedCG:
		a := j.alpha
		pv, ap, x, r := j.x, j.y, j.z, j.w
		for b0 := lo; b0 < hi; b0 += BlockLen {
			b1 := b0 + BlockLen
			if b1 > hi {
				b1 = hi
			}
			p.blockPart[b0/BlockLen] = fusedCGLeaf(a, pv[b0:b1], ap[b0:b1], x[b0:b1], r[b0:b1])
		}
	case opDotBlock:
		dotsRange(p.batchPart, p.batchCap, j.ys, j.ds, j.cross, lo, hi)
	case opCSRMulVec:
		rowPtr, colIdx, vals := j.rowPtr, j.colIdx, j.vals
		x, dst := j.x, j.z
		for i := lo; i < hi; i++ {
			var s float64
			for q := rowPtr[i]; q < rowPtr[i+1]; q++ {
				s += vals[q] * x[colIdx[q]]
			}
			dst[i] = s
		}
	case opRowRange:
		j.fn(lo, hi, j.z, j.x)
	case opAxpyBlock:
		if j.z == nil {
			axpyBlockRange(j.x, j.ys, j.ds, lo, hi)
		} else {
			combineRange(j.z, j.w, j.x, 1, j.ys, lo, hi)
		}
	case opCSRMulVecs:
		CSRMulVecsRows(j.rowPtr, j.colIdx, j.vals, j.ds, j.ys, lo, hi)
	}
}

// Dot computes <x, y>. Pooled evaluation computes the canonical tree's
// leaves in parallel and replays the same combine, so the result is
// bitwise identical to the serial Dot for every worker count.
func (p *Pool) Dot(x, y Vector) float64 {
	mustSameLen2(len(x), len(y))
	nc := p.beginEqual(opDot, len(x))
	if nc == 0 {
		return Dot(x, y)
	}
	p.growSlabs(len(x), false)
	p.job = job{op: opDot, x: x, y: y}
	p.run(nc)
	s := combineTree(p.blockPart)
	p.end()
	return s
}

// DotPair computes <x,y> and <x,z> in a single parallel sweep, bitwise
// identical to the serial DotPair (used by the pipelined CG variants).
func (p *Pool) DotPair(x, y, z Vector) (xy, xz float64) {
	mustSameLen3(len(x), len(y), len(z))
	nc := p.beginEqual(opDotPair, len(x))
	if nc == 0 {
		return DotPair(x, y, z)
	}
	p.growSlabs(len(x), true)
	p.job = job{op: opDotPair, x: x, y: y, z: z}
	p.run(nc)
	xy = combineTree(p.blockPart)
	xz = combineTree(p.blockPart2)
	p.end()
	return xy, xz
}

// Axpy computes y += alpha*x with chunked parallelism.
func (p *Pool) Axpy(alpha float64, x, y Vector) {
	mustSameLen2(len(x), len(y))
	nc := p.beginEqual(opAxpy, len(x))
	if nc == 0 {
		Axpy(alpha, x, y)
		return
	}
	p.job = job{op: opAxpy, alpha: alpha, x: x, y: y}
	p.run(nc)
	p.end()
}

// Xpay computes y = x + alpha*y with chunked parallelism.
func (p *Pool) Xpay(x Vector, alpha float64, y Vector) {
	mustSameLen2(len(x), len(y))
	nc := p.beginEqual(opXpay, len(x))
	if nc == 0 {
		Xpay(x, alpha, y)
		return
	}
	p.job = job{op: opXpay, alpha: alpha, x: x, y: y}
	p.run(nc)
	p.end()
}

// MulElem computes dst = x .* y componentwise with chunked parallelism
// (the pooled form of vec.MulElem, used by diagonal preconditioners).
func (p *Pool) MulElem(dst, x, y Vector) {
	mustSameLen3(len(dst), len(x), len(y))
	nc := p.beginEqual(opMulElem, len(x))
	if nc == 0 {
		MulElem(dst, x, y)
		return
	}
	p.job = job{op: opMulElem, x: x, y: y, z: dst}
	p.run(nc)
	p.end()
}

// FusedCGUpdate is the parallel form of vec.FusedCGUpdate: x += alpha*p,
// r -= alpha*ap, returning <r,r> bitwise identical to the serial form.
func (p *Pool) FusedCGUpdate(alpha float64, pv, ap, x, r Vector) float64 {
	mustSameLen2(len(pv), len(ap))
	mustSameLen2(len(pv), len(x))
	mustSameLen2(len(pv), len(r))
	nc := p.beginEqual(opFusedCG, len(pv))
	if nc == 0 {
		return FusedCGUpdate(alpha, pv, ap, x, r)
	}
	p.growSlabs(len(pv), false)
	p.job = job{op: opFusedCG, alpha: alpha, x: pv, y: ap, z: x, w: r}
	p.run(nc)
	s := combineTree(p.blockPart)
	p.end()
	return s
}

// Dots and DotBlock are the pooled batches: one dispatch for every pair,
// parallel across chunks of the elements, bitwise identical to the serial
// form — which runs, on the caller's part, when none is made.
func (p *Pool) Dots(out []float64, xs, ys []Vector, part []float64) {
	p.dots(out, xs, ys, false, part)
}

func (p *Pool) DotBlock(xs, ys []Vector, out, part []float64) {
	p.dots(out, xs, ys, true, part)
}

func (p *Pool) dots(out []float64, xs, ys []Vector, cross bool, part []float64) {
	nc := 0
	n := dotsLen(out, xs, ys, cross)
	if n > 0 {
		nc = p.beginEqual(opDotBlock, n)
	}
	if nc == 0 {
		dots(out, xs, ys, cross, part)
		return
	}
	p.growBatchSlab(n, len(out))
	p.job = job{op: opDotBlock, ys: xs, ds: ys, cross: cross}
	p.run(nc)
	nb := nblocks(n)
	for k := range out {
		out[k] = combineTree(p.batchPart[k*p.batchCap : k*p.batchCap+nb])
	}
	p.end()
}

// AxpyBlock accumulates ys[j] += sum_i coef[i*len(ys)+j]*xs[i] with
// chunked parallelism (the block-CG multi-axpy); elementwise, so pooled
// results are bitwise identical to the serial AxpyBlock.
func (p *Pool) AxpyBlock(coef []float64, xs, ys []Vector) {
	if len(coef) != len(xs)*len(ys) {
		panic("vec: AxpyBlock coefficient length mismatch")
	}
	if len(xs) == 0 || len(ys) == 0 {
		return
	}
	n := len(ys[0])
	for _, x := range xs {
		mustSameLen2(n, len(x))
	}
	for _, y := range ys {
		mustSameLen2(n, len(y))
	}
	nc := p.beginEqual(opAxpyBlock, n)
	if nc == 0 {
		axpyBlockRange(coef, xs, ys, 0, n)
		return
	}
	p.job = job{op: opAxpyBlock, x: coef, ys: xs, ds: ys}
	p.run(nc)
	p.end()
}

// Combine is the pooled vec.Combine, dispatched as the one-output
// AxpyBlock it is; elementwise, so bitwise identical.
func (p *Pool) Combine(dst, init Vector, coef []float64, xs []Vector) {
	checkCombine(dst, init, coef, xs)
	nc := p.beginEqual(opAxpyBlock, len(dst))
	if nc == 0 {
		combineRange(dst, init, coef, 1, xs, 0, len(dst))
		return
	}
	p.job = job{op: opAxpyBlock, x: coef, ys: xs, z: dst, w: init}
	p.run(nc)
	p.end()
}

// RowMulVec computes dst = A*x for an operator whose rows are
// independent, splitting the n rows into near-equal chunks and running
// fn on each (the pooled matvec of sparse.DIA, whose per-row work is
// uniform enough that an equal split balances). It
// returns false — leaving dst untouched — when the pool is nil, closed,
// serial, or n is below the row-op cutoff, in which case the caller
// should run its serial kernel. fn should be a function value cached by
// the caller (e.g. a method value stored at construction) so
// steady-state dispatch performs no allocations.
func (p *Pool) RowMulVec(n int, dst, x Vector, fn RowKernel) bool {
	nc := p.beginEqual(opRowRange, n)
	if nc == 0 {
		return false
	}
	p.job = job{op: opRowRange, fn: fn, x: x, z: dst}
	p.run(nc)
	p.end()
	return true
}

// RowMulVecBounds runs fn over a caller-provided partition (chunk c
// covers [bounds[c], bounds[c+1]) in whatever units fn interprets, e.g.
// SELL row-chunks weighted by nonzeros). The ranges' dst writes must be
// pairwise disjoint but need not be contiguous — sparse.SELL writes
// through its row permutation. It returns false — leaving dst untouched
// — when the pool is nil or closed or the partition does not fit it, and
// the caller should use its serial kernel.
func (p *Pool) RowMulVecBounds(bounds []int, dst, x Vector, fn RowKernel) bool {
	nc := p.beginBounds(opNone, 0, bounds)
	if nc == 0 {
		return false
	}
	p.job = job{op: opRowRange, fn: fn, x: x, z: dst}
	p.run(nc)
	p.end()
	return true
}

// CSRMulVec computes dst = A*x for a CSR matrix given by (rowPtr,
// colIdx, vals), parallelized over the caller-provided row partition
// bounds (len(bounds)-1 chunks; see sparse.CSR.MulVecPool, which supplies
// an nnz-balanced partition). It returns false — leaving dst untouched —
// when the pool is nil or closed, the total nonzero count is below the
// SpMV cutoff or the partition does not fit this pool, in which case the
// caller should use its serial kernel.
//
// The pool deliberately knows this one structured kernel: SpMV dominates
// every solver's hot path, and routing it through the same opcode
// dispatch keeps the parallel form allocation-free.
func (p *Pool) CSRMulVec(bounds, rowPtr []int, colIdx []int32, vals []float64, dst, x Vector) bool {
	nc := p.beginBounds(opCSRMulVec, len(vals), bounds)
	if nc == 0 {
		return false
	}
	p.job = job{op: opCSRMulVec, rowPtr: rowPtr, colIdx: colIdx, vals: vals, x: x, z: dst}
	p.run(nc)
	p.end()
	return true
}

// CSRMulVecsRows computes dsts[j][lo:hi] = (A*xs[j])[lo:hi] for every
// column j in one pass over the row data: each row's (value, column)
// stream is read once per group of four columns instead of once per
// column, which is where the multi-RHS bandwidth win comes from. Each
// column's accumulation order matches the single-vector CSR loop
// exactly, so every output column is bitwise identical to MulVec.
func CSRMulVecsRows(rowPtr []int, colIdx []int32, vals []float64, dsts, xs []Vector, lo, hi int) {
	s := len(xs)
	j := 0
	for ; j+4 <= s; j += 4 {
		x0, x1, x2, x3 := xs[j], xs[j+1], xs[j+2], xs[j+3]
		d0, d1, d2, d3 := dsts[j], dsts[j+1], dsts[j+2], dsts[j+3]
		for i := lo; i < hi; i++ {
			var s0, s1, s2, s3 float64
			for q := rowPtr[i]; q < rowPtr[i+1]; q++ {
				v, c := vals[q], colIdx[q]
				s0 += v * x0[c]
				s1 += v * x1[c]
				s2 += v * x2[c]
				s3 += v * x3[c]
			}
			d0[i], d1[i], d2[i], d3[i] = s0, s1, s2, s3
		}
	}
	for ; j < s; j++ {
		x, d := xs[j], dsts[j]
		for i := lo; i < hi; i++ {
			var acc float64
			for q := rowPtr[i]; q < rowPtr[i+1]; q++ {
				acc += vals[q] * x[colIdx[q]]
			}
			d[i] = acc
		}
	}
}

// CSRMulVecs computes dsts[j] = A*xs[j] for all columns in one
// parallelized row pass over the caller-provided partition (see
// CSRMulVec for the partition contract). It returns false — leaving the
// destinations untouched — when the nonzero count is below the
// multi-vector SpMV cutoff or the partition does not fit this pool.
func (p *Pool) CSRMulVecs(bounds, rowPtr []int, colIdx []int32, vals []float64, dsts, xs []Vector) bool {
	nc := p.beginBounds(opCSRMulVecs, len(vals), bounds)
	if nc == 0 {
		return false
	}
	p.job = job{op: opCSRMulVecs, rowPtr: rowPtr, colIdx: colIdx, vals: vals, ds: dsts, ys: xs}
	p.run(nc)
	p.end()
	return true
}
