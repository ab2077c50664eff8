package parcg

import (
	"fmt"
	"math"

	"vrcg/internal/core"
	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

// The paper's anchored look-ahead recurrence as an engine.Kernel on
// actual goroutines. Its batched inner-product reduction is issued
// through the engine workspace, which (unless the schedule is blocking)
// runs it on background goroutines while the kernel carries on with the
// overlapping SpMV, so the overlap is measured on hardware
// (Result.Phases) rather than charged to a cost model. The other two
// schedules of the family are registrations, not kernels: parcg-cg is
// krylov's CG and parcg-pipe is pipecg's Ghysels–Vanroose kernel with
// an overlapped reduction. The simulated Clocks/Machine trajectory is
// an opt-in replay of the same schedules' cost (replay.go) layered over
// the solve by the adapter. solve/parcg_golden_test.go pins the
// trajectories.

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

// gramPairs lists the factors of the anchor batch — all 3(4k+1) base
// inner products of the Krylov families R, P — as xs[i], ys[i]: the
// Mu = (R,R), Nu = (R,P) and Omega = (P,P) sequences, w = 2*len(R)-1 =
// 4k+1 entries each, splitting index s into factors a = s/2 and s-a
// exactly as replayVRCG's issueBase charges them. The batch never reads
// P[2k+1] (indices reach only 4k), so it is disjoint from the top-power
// SpMV it is overlapped with.
func gramPairs(xs, ys, R, P []vec.Vector) (_, _ []vec.Vector) {
	w := 2*len(R) - 1
	xs, ys = xs[:0], ys[:0]
	for _, fam := range [3][2][]vec.Vector{{R, R}, {R, P}, {P, P}} {
		for s := 0; s < w; s++ {
			a := min(s/2, len(fam[0])-1)
			xs = append(xs, fam[0][a])
			ys = append(ys, fam[1][s-a])
		}
	}
	return xs, ys
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
//
// The powers R[i], P[i] are advanced by axpy recurrences — only the top
// one gets a product per iteration — and the batch takes (R[a],R[s−a])
// for (r,Aˢr), so it is only as good as R[i] = Aⁱr still holds. Every
// regrowEvery(k) iterations the anchor therefore regrows both families
// from the live r and p with real products before it issues its batch
// (regrow): x, r, p and the coefficient tracks are untouched, so the
// iterates stay CG's, and nothing is waited for. The divergence guard,
// the audit and the emergency re-anchor below are the safety net for
// what that does not catch.
type lookKernel struct {
	k int

	x     vec.Vector
	xBest vec.Vector // best-true-residual iterate, the restart rollback point
	audit vec.Vector // scratch for the periodic true-residual audit
	R, P  []vec.Vector

	bestNorm   float64 // exactly computed true residual norm at xBest
	sinceAudit int

	// gxs, gys are the anchor batch's factor lists (gramPairs).
	gxs, gys []vec.Vector

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
// supports row scans: the tuned operator when it does — a band's
// ScanRow skips only +0 cells, which add nothing, so the bound is the
// CSR's bit for bit and a released CSR stays released — else the
// pre-tuning CSR on run.AT (a SELL does not scan).
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
	run.MatVec(dst, src)
	if kn.inv != 1 {
		vec.Scale(kn.inv, dst)
	}
	run.Res.Stats.Flops += int64(len(dst))
}

// growFamilies scales the unscaled residual b − A x in R[0] and builds
// both Krylov families on it with real matvecs: R[i] = (A/s)^i R[0],
// P = R, plus the top power P[2k+1].
func (kn *lookKernel) growFamilies(run *engine.Run) {
	k := kn.k
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
}

// regrow rebuilds the powers R[1..2k], P[1..2k] on the live R[0], P[0]
// with real products: 4k of them, nothing else moves.
func (kn *lookKernel) regrow(run *engine.Run) {
	for i := 1; i <= 2*kn.k; i++ {
		kn.mulScaled(run, kn.R[i], kn.R[i-1])
		kn.mulScaled(run, kn.P[i], kn.P[i-1])
	}
	run.Res.Refreshes++
}

// regrowEvery is the number of iterations between scheduled regrowths:
// 16 up to k=2 and 8 above, rounded up to a whole number of anchor
// blocks. It is the longest interval measured at which parcg still
// takes cg's iteration count to tol 1e-8 on seven operators; the drift
// it bounds compounds through powers up to A^4k, so it shrinks with k.
// One step longer loses that: every 32 at k=2 takes 513-1027 for cg's
// 512 on Poisson1D(512) and leaves the Poisson2D(64) iterate 11·tol off
// in true residual; every 24 at k=3 takes 264-310 for cg's 193-199 on
// Poisson2D(64) and 1277-1373 on Poisson1D(512). The table is
// ARCHITECTURE.md's ("What the paper's schedules cost"); solve's
// TestPropertyParcgTracksCG holds its k ≤ 3 columns.
func regrowEvery(k int) int {
	m := 8
	if k <= 2 {
		m = 16
	}
	return (m + k - 1) / k * k
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
	kn.gxs, kn.gys = gramPairs(kn.gxs, kn.gys, kn.R, kn.P)

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
		run.ResidualInto(kn.R[0], kn.x)
	} else {
		vec.Zero(kn.x)
		vec.Copy(kn.R[0], run.B)
	}
	run.Res.X = kn.x
	kn.growFamilies(run)

	// Anchor 0 doubles as the first pending batch, promoted again at
	// iteration k.
	kn.anchorNow(run)

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
// the kernel restarts from the true residual. It is the safety net
// under the scheduled regrowth, which keeps the families honest on the
// operators regrowEvery was measured on; where the monomial basis up to
// A^4k still loses them (deep look-ahead, unscaled Gram sequences), the
// drift between R[0] and b−Ax feeds on itself, and catching the rise
// early — 100× leaves room for CG's normal residual-norm oscillation
// but fires while the iterate is still close to the cycle's best —
// turns the explosion into restarted CG. A restart throws the Krylov
// history away and costs a plateau of iterations: it is the recovery,
// not the method.
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

// issueGram issues the anchor batch of the current families into
// gramBufs[idx].
func (kn *lookKernel) issueGram(run *engine.Run, idx int) {
	run.Ws.IssueDots(kn.gramBufs[idx], kn.gxs, kn.gys)
	run.Res.Stats.InnerProducts += 3 * kn.width()
	run.Res.Stats.Flops += int64(3*kn.width()) * 2 * int64(run.Ws.Dim())
}

// anchorNow computes an anchor batch from the current families and
// promotes it at once — start-up, restarts and emergency re-anchors,
// where there is nothing to hide the reduction behind: a blocking
// reduction, counted as one.
func (kn *lookKernel) anchorNow(run *engine.Run) {
	idx := kn.pendingIdx ^ 1
	kn.issueGram(run, idx)
	run.Ws.Await()
	run.Res.BlockingAnchors++
	kn.active = kn.gramBufs[idx]
	kn.pendingIdx = idx
}

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
func (kn *lookKernel) restart(run *engine.Run) {
	run.ResidualInto(kn.R[0], kn.x)
	if rn := run.Ws.Norm2(kn.R[0]); math.IsNaN(rn) || rn > kn.bestNorm {
		vec.Copy(kn.x, kn.xBest)
		run.ResidualInto(kn.R[0], kn.x)
	} else {
		vec.Copy(kn.xBest, kn.x)
		kn.bestNorm = rn
	}
	kn.growFamilies(run)
	kn.anchorNow(run)
	run.Res.Replacements++

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
		rrDirect := run.Dot(kn.R[0], kn.R[0])
		run.Res.FallbackDots++
		kn.rr = rrDirect
		rn = kn.resNorm()
	}
	return rn
}

func (kn *lookKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res
	k := kn.k
	n := int64(ws.Dim())

	// Periodic true-residual audit (see the constants above).
	if kn.sinceAudit++; kn.sinceAudit >= auditEvery {
		kn.sinceAudit = 0
		run.ResidualInto(kn.audit, kn.x)
		trueN := ws.Norm2(kn.audit)
		res.Stats.Flops += 3 * n
		if trueN <= kn.bestNorm {
			vec.Copy(kn.xBest, kn.x)
			kn.bestNorm = trueN
		}
		if math.IsNaN(trueN) || trueN > auditMismatch*math.Max(kn.resNorm(), run.Threshold) {
			kn.restart(run)
			if kn.resNorm() <= run.Threshold {
				run.Stop()
				return nil
			}
		}
	}

	// Divergence guard: a recurrence residual far above the running
	// minimum since the last restart (or NaN) means the families have
	// detached from the iterate — restart from the true residual rather
	// than let the drift compound.
	if rn := kn.resNorm(); math.IsNaN(rn) || rn > divergenceGuard*kn.trust {
		kn.restart(run)
		if kn.resNorm() <= run.Threshold {
			run.Stop()
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
		kn.regrow(run)
		kn.mulScaled(run, kn.P[2*k+1], kn.P[2*k])
		kn.anchorNow(run)

		kn.resetTracks()
		kn.rr = kn.gram().Mu[0]
		pap = kn.gram().Omega[1]
		if kn.resNorm() <= run.Threshold {
			run.Stop()
			return nil
		}
		if pap <= 0 || math.IsNaN(pap) {
			return fmt.Errorf("parcg: (p,Ap) = %g at iteration %d: %w", pap, res.Iterations, krylov.ErrIndefinite)
		}
	}
	lambda := kn.rr / pap

	// Iterate and residual-family updates.
	ws.Axpy(lambda, kn.P[0], kn.x)
	for i := 0; i <= 2*k; i++ {
		ws.Axpy(-lambda, kn.P[i+1], kn.R[i])
	}
	res.Stats.VectorUpdates += 2*k + 2
	res.Stats.Flops += int64(2*k+2) * 2 * n

	// Coefficient half-step and alpha via contraction.
	stepRInto(kn.scratch, kn.cra, kn.cpa, lambda)
	rrNew := kn.gram().Contract(kn.scratch.pair(), kn.scratch.pair(), 0)
	if fellBack || rrNew <= 0 || math.IsNaN(rrNew) {
		rrNew = run.Dot(kn.R[0], kn.R[0])
		res.FallbackDots++
	}
	if kn.rr == 0 {
		return fmt.Errorf("parcg: (r,r) vanished at iteration %d: %w", res.Iterations, krylov.ErrBreakdown)
	}
	alpha := rrNew / kn.rr

	// Direction-family updates.
	for i := 0; i <= 2*k; i++ {
		ws.Xpay(kn.R[i], alpha, kn.P[i])
	}
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

	// The top-power SpMV, at anchor boundaries issued between the next
	// batched base-product reduction's issue and its await: the batch
	// reads R[0..2k]/P[0..2k], the SpMV writes only P[2k+1] — disjoint,
	// so an overlapped reduction hides entirely behind real work (and
	// WithBlocking's evaluate-at-issue gives s-step semantics).
	next := res.Iterations
	anchor := next%k == 0 && next < run.Cfg.MaxIter && !run.Stopped()
	if anchor {
		// Promote the building anchor (its reduction has had k
		// iterations to complete) and issue the next one.
		kn.active = kn.gramBufs[kn.pendingIdx]
		target := kn.pendingIdx ^ 1
		kn.cra, kn.crb = kn.crb, kn.cra
		kn.cpa, kn.cpb = kn.cpb, kn.cpa
		kn.crb.resetR()
		kn.cpb.resetP()

		if next%regrowEvery(k) == 0 {
			kn.regrow(run)
		}
		kn.issueGram(run, target)
		kn.pendingIdx = target
		res.Reanchors++
	}
	kn.mulScaled(run, kn.P[2*k+1], kn.P[2*k])
	if anchor {
		ws.Await()
		kn.rr = kn.gram().Contract(kn.cra.pair(), kn.cra.pair(), 0)
	}
	return nil
}

func (kn *lookKernel) Finish(run *engine.Run) {
	// True residual in unscaled space (R[1] is free after the loop).
	tr := kn.R[1]
	run.TrueResidual(tr, kn.x)
	// A non-converged run whose final iterate drifted past the guard's
	// best restart point returns the best iterate instead.
	if run.Res.TrueResidualNorm > kn.bestNorm {
		vec.Copy(kn.x, kn.xBest)
		run.TrueResidual(tr, kn.x)
	}
}
