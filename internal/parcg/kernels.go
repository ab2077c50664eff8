package parcg

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"vrcg/internal/core"
	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

// The paper's three schedules — blocking CG, pipelined CG, and the
// anchored look-ahead recurrence — as engine.Kernels on actual
// goroutines. The inner-product reductions that the paper's analysis is
// about are launched on a per-kernel background goroutine while the
// main goroutine runs the overlapping SpMV, so the overlap is measured
// on hardware (Result.Phases) rather than charged to a cost model. The
// simulated Clocks/Machine trajectory is an opt-in replay of the same
// schedules' cost (replay.go) layered over these kernels by the solve
// adapter. solve/parcg_golden_test.go pins the trajectories.

// bgReducer owns the kernel's background reduction goroutines: nw
// persistent workers, each behind an unbuffered request/done pair,
// splitting a fixed partitioned job. A single worker is the plain
// overlapped reduction; more workers divide an anchor batch's
// independent dot products among themselves (each dot is still summed
// serially by one worker, so the partition changes nothing bitwise).
// The goroutines reference only the job state, never the kernel, so a
// dropped kernel can be collected; its cleanup closes quit and the
// goroutines exit.
type bgReducer struct {
	reqs, dones []chan struct{}
	quit        chan struct{}
}

func startReducer(nw int, part func(wid, nw int)) *bgReducer {
	b := &bgReducer{quit: make(chan struct{})}
	for w := 0; w < nw; w++ {
		req := make(chan struct{})
		done := make(chan struct{})
		b.reqs = append(b.reqs, req)
		b.dones = append(b.dones, done)
		go func(wid int) {
			for {
				select {
				case <-b.quit:
					return
				case <-req:
					part(wid, nw)
					done <- struct{}{}
				}
			}
		}(w)
	}
	return b
}

// launch hands the pre-loaded job to the background goroutines. The
// channel send/receive pairs give the happens-before edges that make
// the job's reads of kernel vectors race-free against the overlapped
// SpMV (which touches disjoint storage).
func (b *bgReducer) launch() {
	for _, c := range b.reqs {
		c <- struct{}{}
	}
}

// wait blocks until every in-flight worker completes — the "reduction
// wait" the phase histograms measure.
func (b *bgReducer) wait() {
	for _, c := range b.dones {
		<-c
	}
}

// newKernelReducer builds a reducer whose goroutines die with the
// kernel: the cleanup runs once the kernel becomes unreachable.
func newKernelReducer[T any](kn *T, nw int, part func(wid, nw int)) *bgReducer {
	b := startReducer(nw, part)
	runtime.AddCleanup(kn, func(q chan struct{}) { close(q) }, b.quit)
	return b
}

// cgKernel is the blocking baseline (paper §2): one SpMV
// and two fully blocking reductions per iteration — the inner-product
// data dependency the other two kernels remove. It exists as the
// contrast row: identical numerics, no overlap, phases instrumented.
type cgKernel struct {
	x, r, pv, ap vec.Vector
	rr           float64
}

// NewCGKernel returns the parcg-cg (blocking Hestenes–Stiefel) kernel.
func NewCGKernel() engine.Kernel { return &cgKernel{} }

func (kn *cgKernel) Name() string { return "parcg-cg" }

func (kn *cgKernel) resNorm() float64 { return math.Sqrt(math.Max(kn.rr, 0)) }

func (kn *cgKernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	n := int64(ws.Dim())
	kn.x, kn.r, kn.pv, kn.ap = ws.Vec(0), ws.Vec(1), ws.Vec(2), ws.Vec(3)

	if run.Cfg.X0 != nil {
		vec.Copy(kn.x, run.Cfg.X0)
		ws.MatVec(run.A, kn.r, kn.x)
		vec.Sub(kn.r, run.B, kn.r)
		run.Res.Stats.MatVecs++
		run.Res.Stats.Flops += engine.MatVecFlops(run.A)
	} else {
		vec.Zero(kn.x)
		vec.Copy(kn.r, run.B)
	}
	run.Res.X = kn.x

	vec.Copy(kn.pv, kn.r)
	kn.rr = ws.Dot(kn.r, kn.r)
	run.Res.Stats.InnerProducts++
	run.Res.Stats.Flops += 2 * n
	return kn.resNorm(), nil
}

func (kn *cgKernel) Residual(*engine.Run) float64 { return kn.resNorm() }

func (kn *cgKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res
	n := int64(ws.Dim())

	t0 := time.Now()
	ws.MatVec(run.A, kn.ap, kn.pv)
	res.Stats.MatVecs++
	res.Stats.Flops += engine.MatVecFlops(run.A)
	spmvD := time.Since(t0)

	t0 = time.Now()
	pap := ws.Dot(kn.pv, kn.ap)
	redD := time.Since(t0)
	res.Stats.InnerProducts++
	res.Stats.Flops += 2 * n
	if pap <= 0 || math.IsNaN(pap) {
		return fmt.Errorf("parcg: curvature %g at iteration %d: %w", pap, res.Iterations, krylov.ErrIndefinite)
	}
	lambda := kn.rr / pap

	t0 = time.Now()
	ws.Axpy(lambda, kn.pv, kn.x)
	ws.Axpy(-lambda, kn.ap, kn.r)
	updD := time.Since(t0)
	res.Stats.VectorUpdates += 2
	res.Stats.Flops += 4 * n

	t0 = time.Now()
	rrNew := ws.Dot(kn.r, kn.r)
	redD += time.Since(t0)
	res.Stats.InnerProducts++
	res.Stats.Flops += 2 * n

	alpha := rrNew / kn.rr
	t0 = time.Now()
	ws.Xpay(kn.r, alpha, kn.pv)
	updD += time.Since(t0)
	res.Stats.VectorUpdates++
	res.Stats.Flops += 2 * n

	kn.rr = rrNew
	res.Phases.Observe(engine.PhaseSpMV, spmvD)
	res.Phases.Observe(engine.PhaseReduction, redD)
	res.Phases.Observe(engine.PhaseUpdate, updD)
	run.Tick(kn.resNorm())
	return nil
}

func (kn *cgKernel) Finish(run *engine.Run) {
	run.Ws.MatVec(run.A, kn.ap, kn.x)
	vec.Sub(kn.ap, run.B, kn.ap)
	run.Res.Stats.MatVecs++
	run.Res.Stats.Flops += engine.MatVecFlops(run.A)
	run.Res.TrueResidualNorm = vec.Norm2(kn.ap)
}

// pipeJob is the pipelined kernel's in-flight reduction: the fused
// (gamma, delta) = ((r,r), (r,w)) pair the background goroutine
// evaluates while the main goroutine runs n = A w. Serial vec kernels
// are bitwise-identical to the pooled ones (same blocked-tree combine),
// so overlapping changes nothing numerically.
type pipeJob struct {
	r, w         vec.Vector
	gamma, delta float64
}

func (j *pipeJob) run() { j.gamma, j.delta = vec.DotPair(j.r, j.r, j.w) }

// runPart adapts run to the reducer's partitioned-job shape; the fused
// pair is one indivisible reduction, so the pipe kernel always runs a
// single worker.
func (j *pipeJob) runPart(int, int) { j.run() }

// pipeKernel is Ghysels–Vanroose pipelined CG on real goroutines: one
// SpMV and ONE reduction per iteration, the reduction genuinely in
// flight during the SpMV. Each Step issues the next iteration's
// reduction and matvec together, so the wait lands after the overlap
// window — the schedule replayPipe charges, with the simulated
// IAllreduce replaced by a goroutine.
type pipeKernel struct {
	x, r, w, pv, s, q, nv vec.Vector

	j   *pipeJob
	red *bgReducer

	gamma, delta       float64
	gammaOld, alphaOld float64
	first              bool
}

// NewPipeKernel returns the parcg-pipe (real-parallel pipelined CG)
// kernel.
func NewPipeKernel() engine.Kernel { return &pipeKernel{} }

func (kn *pipeKernel) Name() string { return "parcg-pipe" }

func (kn *pipeKernel) resNorm() float64 { return math.Sqrt(math.Max(kn.gamma, 0)) }

func (kn *pipeKernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	n := int64(ws.Dim())
	kn.x, kn.r, kn.w = ws.Vec(0), ws.Vec(1), ws.Vec(2)
	kn.pv, kn.s, kn.q, kn.nv = ws.Vec(3), ws.Vec(4), ws.Vec(5), ws.Vec(6)
	if kn.red == nil {
		kn.j = &pipeJob{}
		kn.red = newKernelReducer(kn, 1, kn.j.runPart)
	}
	kn.j.r, kn.j.w = kn.r, kn.w

	if run.Cfg.X0 != nil {
		vec.Copy(kn.x, run.Cfg.X0)
		ws.MatVec(run.A, kn.r, kn.x)
		vec.Sub(kn.r, run.B, kn.r)
		run.Res.Stats.MatVecs++
		run.Res.Stats.Flops += engine.MatVecFlops(run.A)
	} else {
		vec.Zero(kn.x)
		vec.Copy(kn.r, run.B)
	}
	run.Res.X = kn.x

	ws.MatVec(run.A, kn.w, kn.r)
	run.Res.Stats.MatVecs++
	run.Res.Stats.Flops += engine.MatVecFlops(run.A)

	vec.Zero(kn.pv)
	vec.Zero(kn.s)
	vec.Zero(kn.q)

	// Start-up overlap: the (gamma, delta) reduction is in flight while
	// the first iteration's matvec n = A w runs.
	kn.red.launch()
	ws.MatVec(run.A, kn.nv, kn.w)
	run.Res.Stats.MatVecs++
	run.Res.Stats.Flops += engine.MatVecFlops(run.A)
	kn.red.wait()
	kn.gamma, kn.delta = kn.j.gamma, kn.j.delta
	run.Res.Stats.InnerProducts += 2
	run.Res.Stats.Flops += 4 * n

	kn.gammaOld, kn.alphaOld = 0, 0
	kn.first = true
	return kn.resNorm(), nil
}

func (kn *pipeKernel) Residual(*engine.Run) float64 { return kn.resNorm() }

func (kn *pipeKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res
	n := int64(ws.Dim())

	var beta, alpha float64
	if kn.first {
		beta = 0
		if kn.delta == 0 || math.IsNaN(kn.delta) {
			return fmt.Errorf("parcg: pipelined CG breakdown at iteration %d: %w", res.Iterations, krylov.ErrBreakdown)
		}
		alpha = kn.gamma / kn.delta
		kn.first = false
	} else {
		beta = kn.gamma / kn.gammaOld
		den := kn.delta - beta*kn.gamma/kn.alphaOld
		if den == 0 || math.IsNaN(den) {
			return fmt.Errorf("parcg: pipelined CG breakdown at iteration %d: %w", res.Iterations, krylov.ErrBreakdown)
		}
		alpha = kn.gamma / den
	}

	t0 := time.Now()
	ws.Xpay(kn.r, beta, kn.pv)
	ws.Xpay(kn.w, beta, kn.s)
	ws.Xpay(kn.nv, beta, kn.q)
	ws.Axpy(alpha, kn.pv, kn.x)
	ws.Axpy(-alpha, kn.s, kn.r)
	ws.Axpy(-alpha, kn.q, kn.w)
	updD := time.Since(t0)
	res.Stats.VectorUpdates += 6
	res.Stats.Flops += 12 * n

	kn.gammaOld, kn.alphaOld = kn.gamma, alpha

	// Next iteration's reduction in flight over the matvec it hides
	// behind.
	kn.red.launch()
	t0 = time.Now()
	ws.MatVec(run.A, kn.nv, kn.w)
	spmvD := time.Since(t0)
	res.Stats.MatVecs++
	res.Stats.Flops += engine.MatVecFlops(run.A)
	t0 = time.Now()
	kn.red.wait()
	redD := time.Since(t0)
	kn.gamma, kn.delta = kn.j.gamma, kn.j.delta
	res.Stats.InnerProducts += 2
	res.Stats.Flops += 4 * n

	res.Phases.Observe(engine.PhaseSpMV, spmvD)
	res.Phases.Observe(engine.PhaseReduction, redD)
	res.Phases.Observe(engine.PhaseUpdate, updD)
	run.Tick(kn.resNorm())
	return nil
}

func (kn *pipeKernel) Finish(run *engine.Run) {
	run.Ws.MatVec(run.A, kn.nv, kn.x)
	vec.Sub(kn.nv, run.B, kn.nv)
	run.Res.Stats.MatVecs++
	run.Res.Stats.Flops += engine.MatVecFlops(run.A)
	run.Res.TrueResidualNorm = vec.Norm2(kn.nv)
}

// coeffTrack is a fixed-capacity, in-place CoeffPair: the polynomial
// coefficients of an iterate over the anchor's Krylov base. The step
// arithmetic replicates core.StepCGR/StepCGP exactly (same expression
// shape, so identical rounding) without their per-step allocations.
type coeffTrack struct {
	rho, pi       []float64
	rhoBuf, piBuf []float64
}

func (t *coeffTrack) grow(capacity int) {
	if cap(t.rhoBuf) < capacity {
		t.rhoBuf = make([]float64, capacity)
		t.piBuf = make([]float64, capacity)
	}
}

// resetR makes the track the fresh residual representation (Rho=[1]).
func (t *coeffTrack) resetR() {
	t.rho = t.rhoBuf[:1]
	t.rho[0] = 1
	t.pi = t.piBuf[:0]
}

// resetP makes the track the fresh direction representation (Pi=[1]).
func (t *coeffTrack) resetP() {
	t.rho = t.rhoBuf[:0]
	t.pi = t.piBuf[:1]
	t.pi[0] = 1
}

func (t *coeffTrack) pair() core.CoeffPair { return core.CoeffPair{Rho: t.rho, Pi: t.pi} }

// axpyShiftInto writes x + s*shift(y) into buf, mirroring
// core.axpyCoeff over core.shiftA: shift(y)[0] = 0, shift(y)[i] =
// y[i-1], and the scaled term is added only inside shift(y)'s length.
// Safe when buf backs x (same-index reads precede writes).
func axpyShiftInto(buf, x, y []float64, s float64) []float64 {
	ylen := 0
	if len(y) > 0 {
		ylen = len(y) + 1
	}
	n := len(x)
	if ylen > n {
		n = ylen
	}
	out := buf[:n]
	for i := 0; i < n; i++ {
		v := 0.0
		if i < len(x) {
			v = x[i]
		}
		if i < ylen {
			yi := 0.0
			if i >= 1 {
				yi = y[i-1]
			}
			v += s * yi
		}
		out[i] = v
	}
	return out
}

// axpyInto writes x + s*y into buf, mirroring core.axpyCoeff. Safe when
// buf backs x or y.
func axpyInto(buf, x, y []float64, s float64) []float64 {
	n := len(x)
	if len(y) > n {
		n = len(y)
	}
	out := buf[:n]
	for i := 0; i < n; i++ {
		v := 0.0
		if i < len(x) {
			v = x[i]
		}
		if i < len(y) {
			v += s * y[i]
		}
		out[i] = v
	}
	return out
}

// stepRInto advances the residual representation r' = r - λ A p into
// dst (core.StepCGR, allocation-free).
func stepRInto(dst, r, p *coeffTrack, lambda float64) {
	dst.rho = axpyShiftInto(dst.rhoBuf, r.rho, p.rho, -lambda)
	dst.pi = axpyShiftInto(dst.piBuf, r.pi, p.pi, -lambda)
}

// stepPInto completes the step p' = r' + a p into dst (core.StepCGP,
// allocation-free; dst may be p itself).
func stepPInto(dst, rNew, p *coeffTrack, alpha float64) {
	dst.rho = axpyInto(dst.rhoBuf, rNew.rho, p.rho, alpha)
	dst.pi = axpyInto(dst.piBuf, rNew.pi, p.pi, alpha)
}

// gramJob is the look-ahead kernel's anchor batch: all 3*(4k+1) base
// inner products of the current Krylov families, evaluated on the
// background goroutine while the main goroutine keeps iterating. The
// batch never reads P[2k+1] (indices reach only 4k), so it is disjoint
// from the concurrently running top-power SpMV.
type gramJob struct {
	R, P []vec.Vector
	out  []float64
}

func (j *gramJob) run() { gramInto(j.out, j.R, j.P) }

// runPart computes the rows r ≡ wid (mod nw) of the flattened batch.
// Every dot lands in its own out element and is summed serially by
// exactly one worker, so the result is bitwise identical to the
// single-goroutine gramInto — the partition only shortens the batch's
// critical path so it fits inside the k-iteration overlap window.
func (j *gramJob) runPart(wid, nw int) {
	w := 2*len(j.R) - 1
	for r := wid; r < 3*w; r += nw {
		s := r % w
		var xs, ys []vec.Vector
		switch r / w {
		case 0:
			xs, ys = j.R, j.R
		case 1:
			xs, ys = j.R, j.P
		default:
			xs, ys = j.P, j.P
		}
		a := s / 2
		if a >= len(xs) {
			a = len(xs) - 1
		}
		j.out[r] = vec.Dot(xs[a], ys[s-a])
	}
}

// gramInto fills out (length 3w, w = 2*len(R)-1 = 4k+1) with the Mu,
// Nu, Omega sequences, splitting index s into factors a = s/2 and s-a
// exactly as replayVRCG's issueBase charges them.
func gramInto(out []float64, R, P []vec.Vector) {
	w := 2*len(R) - 1
	gramRows(out[0:w], R, R)
	gramRows(out[w:2*w], R, P)
	gramRows(out[2*w:3*w], P, P)
}

func gramRows(dst []float64, xs, ys []vec.Vector) {
	for s := range dst {
		a := s / 2
		if a >= len(xs) {
			a = len(xs) - 1
		}
		dst[s] = vec.Dot(xs[a], ys[s-a])
	}
}

// rowScanner is the operator capability the Gershgorin bound needs.
type rowScanner interface {
	Dim() int
	ScanRow(i int, emit func(j int, v float64))
}

// lookKernel is the paper's anchored look-ahead recurrence on real
// goroutines: every k iterations one batched base-product reduction is
// launched in the background and consumed k iterations later, by which
// time it has had a full anchor block of SpMV/update work to hide
// behind; in between, all step scalars are contractions of
// the previous anchor's base products — no reduction on the critical
// path. Internally the kernel iterates on the Gershgorin-scaled
// operator A/s so the Gram sequences (powers up to A^4k) keep O(1)
// magnitude; all reported norms are unscaled.
type lookKernel struct {
	k int

	x     vec.Vector
	xBest vec.Vector // best-true-residual iterate, the restart rollback point
	audit vec.Vector // scratch for the periodic true-residual audit
	R, P  []vec.Vector

	bestNorm   float64 // exactly computed true residual norm at xBest
	sinceAudit int

	gj  *gramJob
	red *bgReducer

	// Double-buffered anchor batches: active is the promoted batch the
	// contractions read; gramBufs[pendingIdx] holds the most recently
	// issued one.
	gramBufs   [2][]float64
	active     []float64
	pendingIdx int

	// Coefficient tracks: (cra, cpa) contract against the active
	// anchor, (crb, cpb) build toward the pending one; scratch stages
	// the half-step residual representation.
	cra, cpa, crb, cpb, scratch *coeffTrack
	tracks                      [5]coeffTrack

	rr    float64
	trust float64 // divergence-guard anchor, rebased per restart
	scale float64 // Gershgorin bound of the bound operator (1 when disabled)
	inv   float64

	scaleFor sparse.Matrix // operator identity the cached bound belongs to
	scaleVal float64

	builtK int
}

// NewLookaheadKernel returns the parcg kernel: the paper's restructured
// CG with look-ahead K, real-parallel anchored reductions.
func NewLookaheadKernel() engine.Kernel { return &lookKernel{} }

func (kn *lookKernel) Name() string { return "parcg" }

func (kn *lookKernel) width() int { return 4*kn.k + 1 }

func (kn *lookKernel) gram() core.BaseGram {
	w := kn.width()
	return core.BaseGram{Mu: kn.active[0:w], Nu: kn.active[w : 2*w], Omega: kn.active[2*w : 3*w]}
}

// resNorm converts the scaled-space recurrence (r,r) back to the
// unscaled residual norm the driver compares against Tol*||b||.
func (kn *lookKernel) resNorm() float64 {
	return math.Sqrt(math.Max(kn.rr, 0)) * kn.scale
}

// gershgorin computes max_i sum_j |a_ij| over whichever operator view
// still supports row scans (the pre-tuning CSR survives on run.AT when
// the tuned operator does not scan).
func gershgorin(run *engine.Run) float64 {
	sc, ok := run.A.(rowScanner)
	if !ok {
		sc, ok = run.AT.(rowScanner)
	}
	if !ok {
		return 1
	}
	bound := 0.0
	row := 0.0
	emit := func(_ int, v float64) {
		if v < 0 {
			v = -v
		}
		row += v
	}
	for i := 0; i < sc.Dim(); i++ {
		row = 0
		sc.ScanRow(i, emit)
		if row > bound {
			bound = row
		}
	}
	return bound
}

func (kn *lookKernel) mulScaled(run *engine.Run, dst, src vec.Vector) {
	run.Ws.MatVec(run.A, dst, src)
	if kn.inv != 1 {
		vec.Scale(kn.inv, dst)
	}
	run.Res.Stats.MatVecs++
	run.Res.Stats.Flops += engine.MatVecFlops(run.A) + int64(len(dst))
}

func (kn *lookKernel) resetTracks() {
	kn.cra.resetR()
	kn.cpa.resetP()
	kn.crb.resetR()
	kn.cpb.resetP()
}

func (kn *lookKernel) Init(run *engine.Run) (float64, error) {
	k := run.Cfg.K
	if k < 1 {
		return 0, fmt.Errorf("parcg: VRCG needs K >= 1, got %d: %w", k, krylov.ErrBadOption)
	}
	ws := run.Ws
	kn.k = k

	if kn.builtK != k {
		w := kn.width()
		kn.gramBufs[0] = make([]float64, 3*w)
		kn.gramBufs[1] = make([]float64, 3*w)
		for i := range kn.tracks {
			kn.tracks[i].grow(2*k + 2)
		}
		kn.cra, kn.cpa = &kn.tracks[0], &kn.tracks[1]
		kn.crb, kn.cpb = &kn.tracks[2], &kn.tracks[3]
		kn.scratch = &kn.tracks[4]
		kn.builtK = k
	}
	if kn.red == nil {
		kn.gj = &gramJob{}
		// The anchor batch is 3*(4k+1) independent dots; spread them over
		// the machine's parallelism (capped by the batch width) so the
		// background reduction keeps pace with the pooled SpMV it hides
		// behind. runPart re-derives the batch shape from the job slices,
		// so a later K change only idles surplus workers.
		nw := runtime.GOMAXPROCS(0)
		if rows := 3 * kn.width(); nw > rows {
			nw = rows
		}
		kn.red = newKernelReducer(kn, nw, kn.gj.runPart)
	}

	// Bind the families to the workspace arena: x, R[0..2k], P[0..2k+1].
	kn.x = ws.Vec(0)
	kn.R = kn.R[:0]
	for i := 0; i <= 2*k; i++ {
		kn.R = append(kn.R, ws.Vec(1+i))
	}
	kn.P = kn.P[:0]
	for i := 0; i <= 2*k+1; i++ {
		kn.P = append(kn.P, ws.Vec(2*k+2+i))
	}
	kn.xBest = ws.Vec(4*k + 4)
	kn.audit = ws.Vec(4*k + 5)
	kn.sinceAudit = 0
	kn.gj.R, kn.gj.P = kn.R, kn.P

	// Spectral scaling: solve (A/s) x = b/s with s the Gershgorin bound
	// (cached per operator — the row scan is a cold-path cost).
	if run.Cfg.NoScaling {
		kn.scale = 1
	} else {
		if kn.scaleFor != run.A {
			kn.scaleVal = gershgorin(run)
			kn.scaleFor = run.A
		}
		kn.scale = kn.scaleVal
		if kn.scale <= 0 {
			kn.scale = 1
		}
	}
	kn.inv = 1 / kn.scale

	// Scaled initial residual R[0] = (b - A x0)/s and the Krylov
	// families above it.
	if run.Cfg.X0 != nil {
		vec.Copy(kn.x, run.Cfg.X0)
		ws.MatVec(run.A, kn.R[0], kn.x)
		vec.Sub(kn.R[0], run.B, kn.R[0])
		run.Res.Stats.MatVecs++
		run.Res.Stats.Flops += engine.MatVecFlops(run.A)
	} else {
		vec.Zero(kn.x)
		vec.Copy(kn.R[0], run.B)
	}
	if kn.inv != 1 {
		vec.Scale(kn.inv, kn.R[0])
	}
	run.Res.X = kn.x

	for i := 1; i <= 2*k; i++ {
		kn.mulScaled(run, kn.R[i], kn.R[i-1])
	}
	for i := 0; i <= 2*k; i++ {
		vec.Copy(kn.P[i], kn.R[i])
	}
	kn.mulScaled(run, kn.P[2*k+1], kn.P[2*k])

	// Anchor 0: computed synchronously (start-up), and it doubles as
	// the first pending batch, promoted again at iteration k.
	gramInto(kn.gramBufs[0], kn.R, kn.P)
	kn.active = kn.gramBufs[0]
	kn.pendingIdx = 0
	run.Res.Stats.InnerProducts += 3 * kn.width()
	run.Res.Stats.Flops += int64(3*kn.width()) * 2 * int64(ws.Dim())

	kn.resetTracks()
	kn.rr = kn.gram().Contract(kn.cra.pair(), kn.cra.pair(), 0)
	kn.trust = kn.resNorm()
	vec.Copy(kn.xBest, kn.x)
	kn.bestNorm = kn.resNorm() // families are fresh here, so this is the true norm
	run.Res.K = k
	return kn.resNorm(), nil
}

// divergenceGuard bounds how far the recurrence residual may rise above
// the running minimum since the last restart (the trust anchor) before
// the kernel restarts from the true residual. The look-ahead
// recurrences iterate a monomial basis up to A^4k, so on larger or
// worse-conditioned systems the drift between R[0] and b−Ax feeds on
// itself; catching the rise early — 100× leaves room for CG's normal
// residual-norm oscillation but fires while the iterate is still close
// to the cycle's best — turns the explosion into restarted CG.
const divergenceGuard = 1e2

// The recurrence guard cannot see drift that keeps the recurrence norm
// small while the iterate diverges (the recurrence lying low), so every
// auditEvery iterations the kernel spends one matvec on the exact
// residual b−Ax: an iterate that improved on the best known is
// snapshotted, and a true norm more than auditMismatch× the recurrence
// claim triggers the same restart as the guard. ~3% matvec overhead at
// the default cadence.
const (
	auditEvery    = 32
	auditMismatch = 10
)

// restart rebuilds the entire state from the best-known iterate: R[0]
// becomes the true (scaled) residual b−Ax, the families are regrown
// with real matvecs, the anchor is recomputed synchronously, and the
// coefficient tracks reset — restarted CG. If the drift carried the
// current x somewhere worse than the last restart point, x first rolls
// back to xBest, so successive restart points are monotone
// non-increasing in true residual: the worst the guard can produce is a
// stall at the best iterate found, never a blow-up. The trust anchor is
// rebased to the post-restart norm so a slow decline from a high
// restart point cannot trigger a restart storm.
func (kn *lookKernel) restart(run *engine.Run, spmvD, redD *time.Duration) {
	ws, res := run.Ws, run.Res
	k := kn.k
	n := int64(ws.Dim())

	t0 := time.Now()
	ws.MatVec(run.A, kn.R[0], kn.x)
	vec.Sub(kn.R[0], run.B, kn.R[0])
	res.Stats.MatVecs++
	res.Stats.Flops += engine.MatVecFlops(run.A)
	if rn := vec.Norm2(kn.R[0]); math.IsNaN(rn) || rn > kn.bestNorm {
		vec.Copy(kn.x, kn.xBest)
		ws.MatVec(run.A, kn.R[0], kn.x)
		vec.Sub(kn.R[0], run.B, kn.R[0])
		res.Stats.MatVecs++
		res.Stats.Flops += engine.MatVecFlops(run.A)
	} else {
		vec.Copy(kn.xBest, kn.x)
		kn.bestNorm = rn
	}
	if kn.inv != 1 {
		vec.Scale(kn.inv, kn.R[0])
	}
	for i := 1; i <= 2*k; i++ {
		kn.mulScaled(run, kn.R[i], kn.R[i-1])
	}
	for i := 0; i <= 2*k; i++ {
		vec.Copy(kn.P[i], kn.R[i])
	}
	kn.mulScaled(run, kn.P[2*k+1], kn.P[2*k])
	*spmvD += time.Since(t0)
	res.Refreshes++

	t0 = time.Now()
	idx := kn.pendingIdx ^ 1
	gramInto(kn.gramBufs[idx], kn.R, kn.P)
	kn.active = kn.gramBufs[idx]
	kn.pendingIdx = idx
	*redD += time.Since(t0)
	res.Reanchors++
	res.Stats.InnerProducts += 3 * kn.width()
	res.Stats.Flops += int64(3*kn.width()) * 2 * n

	kn.resetTracks()
	kn.rr = kn.gram().Mu[0]
	kn.trust = math.Max(kn.resNorm(), run.Threshold)
}

// Residual reports the recurrence residual, sharpened by one direct
// (r,r) before the driver is allowed to trust a convergence decision
// (the exit reduction replayVRCG charges), so a drifted recurrence can
// neither fake convergence nor hide it.
func (kn *lookKernel) Residual(run *engine.Run) float64 {
	rn := kn.resNorm()
	if rn <= run.Threshold {
		rrDirect := run.Ws.Dot(kn.R[0], kn.R[0])
		run.Res.FallbackDots++
		run.Res.Stats.InnerProducts++
		run.Res.Stats.Flops += 2 * int64(run.Ws.Dim())
		kn.rr = rrDirect
		rn = kn.resNorm()
	}
	return rn
}

func (kn *lookKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res
	k := kn.k
	n := int64(ws.Dim())
	var spmvD, redD, updD time.Duration

	// Periodic true-residual audit (see the constants above).
	if kn.sinceAudit++; kn.sinceAudit >= auditEvery {
		kn.sinceAudit = 0
		t0 := time.Now()
		ws.MatVec(run.A, kn.audit, kn.x)
		vec.Sub(kn.audit, run.B, kn.audit)
		trueN := vec.Norm2(kn.audit)
		spmvD += time.Since(t0)
		res.Stats.MatVecs++
		res.Stats.Flops += engine.MatVecFlops(run.A) + 3*n
		if trueN <= kn.bestNorm {
			vec.Copy(kn.xBest, kn.x)
			kn.bestNorm = trueN
		}
		if math.IsNaN(trueN) || trueN > auditMismatch*math.Max(kn.resNorm(), run.Threshold) {
			kn.restart(run, &spmvD, &redD)
			if kn.resNorm() <= run.Threshold {
				run.Stop()
				kn.observe(res, spmvD, redD, updD)
				return nil
			}
		}
	}

	// Divergence guard: a recurrence residual far above the running
	// minimum since the last restart (or NaN) means the families have
	// detached from the iterate — restart from the true residual rather
	// than let the drift compound.
	if rn := kn.resNorm(); math.IsNaN(rn) || rn > divergenceGuard*kn.trust {
		kn.restart(run, &spmvD, &redD)
		if kn.resNorm() <= run.Threshold {
			run.Stop()
			kn.observe(res, spmvD, redD, updD)
			return nil
		}
	} else if rn < kn.trust {
		kn.trust = rn
	}

	fellBack := false
	pap := kn.gram().Contract(kn.cpa.pair(), kn.cpa.pair(), 1)
	if pap <= 0 || math.IsNaN(pap) {
		fellBack = true
		// Contraction drift (the monomial-basis conditioning problem):
		// emergency re-anchor — refresh the families with true matvecs,
		// recompute the base products synchronously, restart the
		// coefficient tracks — then retry.
		t0 := time.Now()
		for i := 1; i <= 2*k; i++ {
			kn.mulScaled(run, kn.R[i], kn.R[i-1])
		}
		for i := 1; i <= 2*k+1; i++ {
			kn.mulScaled(run, kn.P[i], kn.P[i-1])
		}
		spmvD += time.Since(t0)
		res.Refreshes++

		t0 = time.Now()
		idx := kn.pendingIdx ^ 1
		gramInto(kn.gramBufs[idx], kn.R, kn.P)
		kn.active = kn.gramBufs[idx]
		kn.pendingIdx = idx
		redD += time.Since(t0)
		res.Reanchors++
		res.Stats.InnerProducts += 3 * kn.width()
		res.Stats.Flops += int64(3*kn.width()) * 2 * n

		kn.resetTracks()
		kn.rr = kn.gram().Mu[0]
		pap = kn.gram().Omega[1]
		if kn.resNorm() <= run.Threshold {
			run.Stop()
			kn.observe(res, spmvD, redD, updD)
			return nil
		}
		if pap <= 0 || math.IsNaN(pap) {
			return fmt.Errorf("parcg: (p,Ap) = %g at iteration %d: %w", pap, res.Iterations, krylov.ErrIndefinite)
		}
	}
	lambda := kn.rr / pap

	// Iterate and residual-family updates.
	t0 := time.Now()
	ws.Axpy(lambda, kn.P[0], kn.x)
	for i := 0; i <= 2*k; i++ {
		ws.Axpy(-lambda, kn.P[i+1], kn.R[i])
	}
	updD += time.Since(t0)
	res.Stats.VectorUpdates += 2*k + 2
	res.Stats.Flops += int64(2*k+2) * 2 * n

	// Coefficient half-step and alpha via contraction.
	stepRInto(kn.scratch, kn.cra, kn.cpa, lambda)
	rrNew := kn.gram().Contract(kn.scratch.pair(), kn.scratch.pair(), 0)
	if fellBack || rrNew <= 0 || math.IsNaN(rrNew) {
		t0 = time.Now()
		rrNew = ws.Dot(kn.R[0], kn.R[0])
		redD += time.Since(t0)
		res.FallbackDots++
		res.Stats.InnerProducts++
		res.Stats.Flops += 2 * n
	}
	if kn.rr == 0 {
		return fmt.Errorf("parcg: (r,r) vanished at iteration %d: %w", res.Iterations, krylov.ErrBreakdown)
	}
	alpha := rrNew / kn.rr

	// Direction-family updates.
	t0 = time.Now()
	for i := 0; i <= 2*k; i++ {
		ws.Xpay(kn.R[i], alpha, kn.P[i])
	}
	updD += time.Since(t0)
	res.Stats.VectorUpdates += 2*k + 1
	res.Stats.Flops += int64(2*k+1) * 2 * n

	// Commit the coefficient steps (in place; cra adopts the staged
	// half-step by pointer swap).
	kn.cra, kn.scratch = kn.scratch, kn.cra
	stepPInto(kn.cpa, kn.cra, kn.cpa, alpha)
	stepRInto(kn.crb, kn.crb, kn.cpb, lambda)
	stepPInto(kn.cpb, kn.crb, kn.cpb, alpha)
	kn.rr = rrNew

	run.Tick(kn.resNorm())

	// The top-power SpMV, overlapped at anchor boundaries with the next
	// batched base-product reduction: the batch reads R[0..2k]/P[0..2k],
	// the SpMV writes only P[2k+1] — disjoint, so the reduction hides
	// entirely behind real work.
	next := res.Iterations
	if next%k == 0 && next < run.Cfg.MaxIter && !run.Stopped() {
		// Promote the building anchor (its reduction has had k
		// iterations to complete) and issue the next one.
		kn.active = kn.gramBufs[kn.pendingIdx]
		target := kn.pendingIdx ^ 1
		kn.cra, kn.crb = kn.crb, kn.cra
		kn.cpa, kn.cpb = kn.cpb, kn.cpa
		kn.crb.resetR()
		kn.cpb.resetP()

		kn.gj.out = kn.gramBufs[target]
		if run.Cfg.Blocking {
			// s-step semantics: evaluate at issue, no overlap.
			t0 = time.Now()
			gramInto(kn.gj.out, kn.R, kn.P)
			redD += time.Since(t0)
			t0 = time.Now()
			kn.mulScaled(run, kn.P[2*k+1], kn.P[2*k])
			spmvD += time.Since(t0)
		} else {
			kn.red.launch()
			t0 = time.Now()
			kn.mulScaled(run, kn.P[2*k+1], kn.P[2*k])
			spmvD += time.Since(t0)
			t0 = time.Now()
			kn.red.wait()
			redD += time.Since(t0)
		}
		kn.pendingIdx = target
		res.Reanchors++
		res.Stats.InnerProducts += 3 * kn.width()
		res.Stats.Flops += int64(3*kn.width()) * 2 * n

		kn.rr = kn.gram().Contract(kn.cra.pair(), kn.cra.pair(), 0)
	} else {
		t0 = time.Now()
		kn.mulScaled(run, kn.P[2*k+1], kn.P[2*k])
		spmvD += time.Since(t0)
	}

	kn.observe(res, spmvD, redD, updD)
	return nil
}

func (kn *lookKernel) observe(res *engine.Result, spmvD, redD, updD time.Duration) {
	res.Phases.Observe(engine.PhaseSpMV, spmvD)
	res.Phases.Observe(engine.PhaseReduction, redD)
	res.Phases.Observe(engine.PhaseUpdate, updD)
}

func (kn *lookKernel) Finish(run *engine.Run) {
	// True residual in unscaled space (R[1] is free after the loop).
	tr := kn.R[1]
	run.Ws.MatVec(run.A, tr, kn.x)
	vec.Sub(tr, run.B, tr)
	run.Res.Stats.MatVecs++
	run.Res.Stats.Flops += engine.MatVecFlops(run.A)
	run.Res.TrueResidualNorm = vec.Norm2(tr)
	// A non-converged run whose final iterate drifted past the guard's
	// best restart point returns the best iterate instead.
	if run.Res.TrueResidualNorm > kn.bestNorm {
		vec.Copy(kn.x, kn.xBest)
		run.Ws.MatVec(run.A, tr, kn.x)
		vec.Sub(tr, run.B, tr)
		run.Res.Stats.MatVecs++
		run.Res.Stats.Flops += engine.MatVecFlops(run.A)
		run.Res.TrueResidualNorm = vec.Norm2(tr)
	}
}
