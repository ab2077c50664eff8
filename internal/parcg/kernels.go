package parcg

import (
	"fmt"
	"math"

	"vrcg/internal/core"
	"vrcg/internal/engine"
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

// rowScanner is the operator capability the Gershgorin bound needs.
type rowScanner interface {
	Dim() int
	ScanRow(i int, emit func(j int, v float64))
}

// lookKernel is the paper's anchored look-ahead recurrence on real
// goroutines: every k iterations one batched base-product reduction is
// issued, overlapped with that iteration's top-power product and
// awaited in the same Step (nothing may be in flight between driver
// steps), and its values are first read at the next anchor, k
// iterations later; in between, all step scalars are contractions of
// the previous anchor's base products — no reduction on the critical
// path. Internally the kernel iterates on the Gershgorin-scaled
// operator A/s so the Gram sequences (powers up to A^4k) keep O(1)
// magnitude; all reported norms are unscaled.
//
// The Krylov families are core.Families of depth 2k, advanced by axpy
// recurrences — only the top power gets a product per iteration — and
// the batch takes (R[a],R[s−a]) for (r,Aˢr), so it is only as good as
// R[i] = Aⁱr still holds. Every regrowEvery(k) iterations the anchor
// therefore regrows both families from the live r and p with real
// products before it issues its batch (Families.Regrow, 4k products):
// x, r, p and the coefficient tracks are untouched, so the iterates
// stay CG's, and nothing is waited for. The divergence guard, the audit
// and the emergency re-anchor below are the safety net for what that
// does not catch.
type lookKernel struct {
	k int

	x     vec.Vector
	xBest vec.Vector // best-true-residual iterate, the restart rollback point
	audit vec.Vector // scratch for the periodic true-residual audit
	fam   core.Families
	op    scaledOp // the operator the families multiply by, A/s

	bestNorm   float64 // exactly computed true residual norm at xBest
	sinceAudit int

	// Double-buffered anchor batches: active is the promoted batch the
	// contractions read; gramBufs[pendingIdx] holds the most recently
	// issued one.
	gramBufs   [2][]float64
	active     []float64
	pendingIdx int

	// Coefficient tracks: (cra, cpa) contract against the active
	// anchor, (crb, cpb) build toward the pending one; scratch stages
	// the half-step residual representation.
	cra, cpa, crb, cpb, scratch *core.Coeffs
	tracks                      [5]core.Coeffs

	rr    float64
	trust float64 // divergence-guard anchor, rebased per restart
	scale float64 // Gershgorin bound of the bound operator (1 when disabled)

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

// scaledOp is A/s as the families multiply by it: each product is the
// run's, then divided by s unless s = 1 — all through the workspace, so
// a division is counted where it runs.
type scaledOp struct {
	run *engine.Run
	inv float64
}

func (o *scaledOp) MulVec(dst, x []float64) {
	o.run.MatVec(dst, x)
	o.scale(dst)
}

// scale divides v by s, unless s = 1.
func (o *scaledOp) scale(v vec.Vector) {
	if o.inv != 1 {
		o.run.Ws.Scale(o.inv, v)
	}
}

// grow scales the unscaled residual b − A x in R[0] and rebuilds both
// Krylov families on it with real products: R[i] = (A/s)^i R[0], P = R,
// plus the top power P[2k+1].
func (kn *lookKernel) grow() {
	r := kn.fam.Residual()
	kn.op.scale(r)
	kn.fam.Rebuild(&kn.op, r)
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
	kn.cra.SetR()
	kn.cpa.SetP()
	kn.crb.SetR()
	kn.cpb.SetP()
}

func (kn *lookKernel) Init(run *engine.Run) (float64, error) {
	k := run.Cfg.K
	if k < 1 {
		return 0, fmt.Errorf("parcg: VRCG needs K >= 1, got %d: %w", k, engine.ErrBadOption)
	}
	ws := run.Ws
	kn.k = k

	if kn.builtK != k {
		w := kn.width()
		kn.gramBufs[0] = make([]float64, 3*w)
		kn.gramBufs[1] = make([]float64, 3*w)
		for i := range kn.tracks {
			kn.tracks[i] = core.NewCoeffs(2*k + 2)
		}
		kn.cra, kn.cpa = &kn.tracks[0], &kn.tracks[1]
		kn.crb, kn.cpb = &kn.tracks[2], &kn.tracks[3]
		kn.scratch = &kn.tracks[4]
		kn.builtK = k
	}

	// Bind the workspace arena: x, the families, xBest, audit.
	kn.x = ws.Vec(0)
	next := kn.fam.Bind(ws, 1, 2*k)
	kn.xBest = ws.Vec(next)
	kn.audit = ws.Vec(next + 1)
	kn.sinceAudit = 0

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
	kn.op = scaledOp{run: run, inv: 1 / kn.scale}

	// Scaled initial residual R[0] = (b - A x0)/s and the Krylov
	// families above it.
	run.InitialIterate(kn.x, kn.fam.Residual())
	kn.grow()

	// Anchor 0 doubles as the first pending batch, promoted again at
	// iteration k.
	kn.anchorNow(run)

	kn.resetTracks()
	kn.rr = kn.gram().Contract(kn.cra.CoeffPair, kn.cra.CoeffPair, 0)
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
// gramBufs[idx]: all 3(4k+1) base inner products, the Mu = (R,R),
// Nu = (R,P) and Omega = (P,P) sequences, w = 4k+1 entries each, split
// into factors exactly as replayVRCG's issueBase charges them. The batch
// never reads P[2k+1] (indices reach only 4k), so it is disjoint from
// the top-power SpMV it is overlapped with.
func (kn *lookKernel) issueGram(run *engine.Run, idx int) {
	w := kn.width()
	xs, ys := kn.fam.Gram(w, w, w)
	run.Ws.IssueDots(kn.gramBufs[idx], xs, ys)
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
	r := kn.fam.Residual()
	run.ResidualInto(r, kn.x)
	if rn := run.Ws.Norm2(r); math.IsNaN(rn) || rn > kn.bestNorm {
		vec.Copy(kn.x, kn.xBest)
		run.ResidualInto(r, kn.x)
	} else {
		vec.Copy(kn.xBest, kn.x)
		kn.bestNorm = rn
	}
	kn.grow()
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
		rrDirect := run.Ws.Dot(kn.fam.Residual(), kn.fam.Residual())
		run.Res.FallbackDots++
		kn.rr = rrDirect
		rn = kn.resNorm()
	}
	return rn
}

func (kn *lookKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res
	k := kn.k

	// Periodic true-residual audit (see the constants above).
	if kn.sinceAudit++; kn.sinceAudit >= auditEvery {
		kn.sinceAudit = 0
		run.ResidualInto(kn.audit, kn.x)
		trueN := ws.Norm2(kn.audit)
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
	pap := kn.gram().Contract(kn.cpa.CoeffPair, kn.cpa.CoeffPair, 1)
	if pap <= 0 || math.IsNaN(pap) {
		fellBack = true
		// Contraction drift (the monomial-basis conditioning problem):
		// emergency re-anchor — refresh the families with true matvecs,
		// recompute the base products synchronously, restart the
		// coefficient tracks — then retry.
		kn.fam.Regrow(&kn.op)
		kn.fam.Top(&kn.op)
		res.Refreshes++
		kn.anchorNow(run)

		kn.resetTracks()
		kn.rr = kn.gram().Mu[0]
		pap = kn.gram().Omega[1]
		if kn.resNorm() <= run.Threshold {
			run.Stop()
			return nil
		}
		if err := engine.CheckCurvature(pap); err != nil {
			return fmt.Errorf("parcg: (p,Ap) = %g at iteration %d: %w", pap, res.Iterations, err)
		}
	}
	lambda := kn.rr / pap

	// Iterate and residual-family updates.
	ws.Axpy(lambda, kn.fam.Direction(), kn.x)
	kn.fam.StepR(lambda)

	// Coefficient half-step and alpha via contraction.
	kn.scratch.StepR(kn.cra.CoeffPair, kn.cpa.CoeffPair, lambda)
	rrNew := kn.gram().Contract(kn.scratch.CoeffPair, kn.scratch.CoeffPair, 0)
	if fellBack || rrNew <= 0 || math.IsNaN(rrNew) {
		rrNew = ws.Dot(kn.fam.Residual(), kn.fam.Residual())
		res.FallbackDots++
	}
	if kn.rr == 0 {
		return fmt.Errorf("parcg: (r,r) vanished at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	alpha := rrNew / kn.rr

	// Direction-family updates; the top power's product comes below.
	kn.fam.UpdateP(alpha)

	// Commit the coefficient steps (in place; cra adopts the staged
	// half-step by pointer swap).
	kn.cra, kn.scratch = kn.scratch, kn.cra
	kn.cpa.StepP(kn.cra.CoeffPair, kn.cpa.CoeffPair, alpha)
	kn.crb.StepR(kn.crb.CoeffPair, kn.cpb.CoeffPair, lambda)
	kn.cpb.StepP(kn.crb.CoeffPair, kn.cpb.CoeffPair, alpha)
	kn.rr = rrNew

	run.Tick(kn.resNorm())

	// The top-power SpMV, at anchor boundaries issued between the next
	// batched base-product reduction's issue and its await: the batch
	// reads R[0..2k]/P[0..2k], the SpMV writes only P[2k+1] — disjoint,
	// so an overlapped reduction runs behind that one product (and
	// WithBlocking's evaluate-at-issue gives s-step semantics).
	next := res.Iterations
	anchor := next%k == 0 && next < run.Cfg.MaxIter && !run.Stopped()
	if anchor {
		// Promote the building anchor (its reduction, awaited when it
		// was issued k iterations ago, is first read now) and issue the
		// next one.
		kn.active = kn.gramBufs[kn.pendingIdx]
		target := kn.pendingIdx ^ 1
		kn.cra, kn.crb = kn.crb, kn.cra
		kn.cpa, kn.cpb = kn.cpb, kn.cpa
		kn.crb.SetR()
		kn.cpb.SetP()

		if next%regrowEvery(k) == 0 {
			kn.fam.Regrow(&kn.op)
			res.Refreshes++
		}
		kn.issueGram(run, target)
		kn.pendingIdx = target
		res.Reanchors++
	}
	kn.fam.Top(&kn.op)
	if anchor {
		ws.Await()
		kn.rr = kn.gram().Contract(kn.cra.CoeffPair, kn.cra.CoeffPair, 0)
	}
	return nil
}

func (kn *lookKernel) Finish(run *engine.Run) {
	// True residual in unscaled space (R[1] is free after the loop).
	tr := kn.fam.R[1]
	run.TrueResidual(tr, kn.x)
	// A non-converged run whose final iterate drifted past the guard's
	// best restart point returns the best iterate instead.
	if run.Res.TrueResidualNorm > kn.bestNorm {
		vec.Copy(kn.x, kn.xBest)
		run.TrueResidual(tr, kn.x)
	}
}
