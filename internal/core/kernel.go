package core

import (
	"fmt"
	"math"

	"vrcg/internal/engine"
)

// vrcgKernel is the paper's restructured conjugate gradient iteration
// with look-ahead parameter K, as an engine kernel: identical iterates
// to standard CG in exact arithmetic, but with every (r,r) and (p,Ap)
// delivered by the §4/§5 scalar recurrences from inner products
// computed k iterations earlier, one matrix–vector product per
// iteration, and three direct inner products per iteration replenishing
// the window tops.
//
// The Krylov vector families are arena vectors of the solve's
// workspace, rebound per solve, and the scalar window is kept while K
// is, so a warm repeated solve allocates nothing.
type vrcgKernel struct {
	fam Families
	win *Window
	rr  float64
	// r0 is the initial residual norm of the current solve, the scale
	// the divergence guard in Step measures against; diverged records
	// that the guard fired this solve, which is what obliges the
	// convergence check to verify against the true residual (ordinary
	// periodic replacements do not taint the recursive residual).
	r0       float64
	diverged bool
}

// NewKernel returns the vrcg iteration kernel.
func NewKernel() engine.Kernel { return &vrcgKernel{} }

func (kn *vrcgKernel) Name() string { return "vrcg" }

func (kn *vrcgKernel) resNorm() float64 { return math.Sqrt(math.Max(kn.rr, 0)) }

func (kn *vrcgKernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	if run.Cfg.K < 0 {
		return 0, fmt.Errorf("core: look-ahead parameter K = %d must be >= 0: %w", run.Cfg.K, engine.ErrBadOption)
	}
	k := run.Cfg.K
	if run.Cfg.ReanchorEvery == 0 {
		run.Cfg.ReanchorEvery = DefaultReanchorInterval(k)
	}
	run.Res.K = k

	x := ws.Vec(0)
	// r(0) = b - A x(0), into the arena scratch the families copy from.
	r0 := ws.Vec(1)
	run.InitialIterate(x, r0)

	// Start-up (paper: "After an initial start up"): build the Krylov
	// vector families (k+1 matvecs including the P top) and the scalar
	// windows (6k+6 direct inner products).
	kn.fam.Bind(ws, 2, k)
	kn.fam.Rebuild(runOp{run}, r0)
	if kn.win == nil || kn.win.K != k {
		kn.win = NewWindow(k)
	}
	kn.win.InitDirect(ws, &kn.fam)

	kn.rr = kn.win.RR()
	kn.r0 = kn.resNorm()
	kn.diverged = false
	return kn.r0, nil
}

// divergenceGuard is the factor over the initial residual norm past
// which the recurrences are declared divergent and the iteration
// restarted from the true residual. Well-behaved runs never approach
// it (CG residuals oscillate, but not four orders of magnitude above
// their start); a restart at this scale is still fully recoverable in
// float64.
const divergenceGuard = 1e4

// restart abandons the drifted recurrence state entirely: the residual
// is recomputed as b - A x, the direction reset to it (a CG restart —
// conjugacy is already lost), the families rebuilt, and the windows
// re-anchored directly. This is the emergency form of van der Vorst–Ye
// residual replacement, for runs whose recursive residual has left the
// trust region.
func (kn *vrcgKernel) restart(run *engine.Run) {
	res, fam := run.Res, &kn.fam
	run.ResidualInto(fam.R[0], res.X)
	fam.Rebuild(runOp{run}, fam.R[0])
	reanchor(run, fam, kn.win, false)
	res.Replacements++
	kn.rr = kn.win.RR()
	// Rebase the guard on the restarted residual: on systems whose
	// residual legitimately sits far above its starting norm, the old
	// scale would re-trigger a restart every Step.
	if rn := kn.resNorm(); rn > kn.r0 {
		kn.r0 = rn
	}
}

// Residual sharpens the recurrence (r,r) before the driver trusts it
// for a convergence decision: the recurrence value may have drifted, so
// a value at or under the threshold is verified with one direct inner
// product and the window resynchronized from it. Runs that needed a
// divergence restart get the stronger check: their recursive residual
// vector itself is suspect, so convergence is confirmed against the
// true residual b - A x (one matvec, only at candidate-convergence
// iterations) — a detached recurrence can otherwise report a tiny
// (r,r) while the iterate is nowhere near the solution.
func (kn *vrcgKernel) Residual(run *engine.Run) float64 {
	rn := kn.resNorm()
	if rn <= run.Threshold {
		rrDirect := run.Ws.Dot(kn.fam.Residual(), kn.fam.Residual())
		run.Res.FallbackDots++
		kn.win.M[0] = rrDirect
		kn.rr = rrDirect
		rn = kn.resNorm()
		if rn <= run.Threshold && kn.diverged {
			// restart recomputes r = b - A x and re-anchors; if the
			// true residual really is converged this is the last act
			// of the solve, and if not, iteration continues honestly.
			kn.restart(run)
			rn = kn.resNorm()
		}
	}
	return rn
}

func (kn *vrcgKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res
	fam, win := &kn.fam, kn.win
	k := fam.K

	// Divergence guard: a recurrence residual far above the solve's
	// starting scale (or non-finite) means the scalar recurrences have
	// detached from the vectors they describe — re-anchoring can no
	// longer help, because the recursive residual itself is wrong.
	// Restart from the true residual while the iterate is still
	// recoverable.
	if rn := kn.resNorm(); math.IsNaN(rn) || rn > divergenceGuard*kn.r0 {
		kn.diverged = true
		kn.restart(run)
	}

	pap := win.PAP()
	if pap <= 0 || math.IsNaN(pap) {
		// Drift symptom: fall back to the direct inner product
		// (A p is family member P[1], so this is one dot).
		pap = ws.Dot(fam.Direction(), fam.AP())
		res.FallbackDots++
		win.W[1] = pap
	}
	if pap <= 0 || math.IsNaN(pap) {
		// The direct product failed too, meaning the vector families
		// themselves drifted (P[1] is no longer A p). Emergency
		// recovery: rebuild the families from the live r and p and
		// re-anchor the windows. Only if the genuinely recomputed
		// (p, A p) is still non-positive is the operator indefinite;
		// a non-finite one is a breakdown (engine.CheckCurvature).
		reanchor(run, fam, win, true)
		kn.rr = win.RR()
		pap = win.PAP()
		if pap <= 0 || math.IsNaN(pap) {
			// A degenerate direction with the residual already at the
			// threshold is convergence the recurrence never noticed
			// (the iterate can land exactly on the solution, leaving
			// p = 0 and 0/0 scalars), not indefiniteness: stop and let
			// the driver's exit re-check classify it.
			if kn.resNorm() <= run.Threshold {
				run.Stop()
				return nil
			}
			return fmt.Errorf("core: (p,Ap) = %g at iteration %d: %w",
				pap, res.Iterations, engine.CheckCurvature(pap))
		}
	}
	lambda := kn.rr / pap

	// Iterate update (uses the live direction P[0] before StepP).
	ws.Axpy(lambda, fam.Direction(), res.X)

	// Residual-family half step, then the recurrence value of (r',r').
	fam.StepR(lambda)

	rrNew := win.PeekRR(lambda)
	fellBack := false
	if rrNew <= 0 || math.IsNaN(rrNew) {
		// Drift pushed the recurrence nonpositive (typically at
		// convergence); fall back to one direct inner product.
		rrNew = ws.Dot(fam.Residual(), fam.Residual())
		fellBack = true
		res.FallbackDots++
	}
	if kn.rr == 0 {
		return fmt.Errorf("core: (r,r) vanished at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	alpha := rrNew / kn.rr

	// Direction-family half step: 2k+2 axpys + the single matvec.
	fam.StepP(runOp{run}, alpha)

	// Window advance: all-but-top entries by scalar recurrence, tops
	// by the three direct inner products of §5.
	topN, topW1, topW2 := fam.DirectTops(ws)
	win.Step(lambda, alpha, topN, topW1, topW2)
	res.Stats.Flops += int64(6*(2*k+1) + 4) // scalar recurrence work
	if fellBack {
		win.M[0] = rrNew // resynchronize with the direct value
	}

	kn.rr = win.RR()
	res.Iterations++

	if run.Cfg.ValidateEvery > 0 && res.Iterations%run.Cfg.ValidateEvery == 0 {
		validateDrift(ws, res, fam, kn.rr, win.PAP())
	}
	if run.Cfg.ResidualReplaceEvery > 0 && res.Iterations%run.Cfg.ResidualReplaceEvery == 0 {
		// Residual replacement: overwrite the recursive residual
		// with b - A x, then rebuild everything from it.
		run.ResidualInto(fam.R[0], res.X)
		// The direction keeps its recursive value (replacing p too
		// would discard conjugacy); powers and windows rebuild.
		reanchor(run, fam, win, true)
		res.Replacements++
		kn.rr = win.RR()
	} else if run.Cfg.ReanchorEvery > 0 && res.Iterations%run.Cfg.ReanchorEvery == 0 {
		reanchor(run, fam, win, !run.Cfg.WindowOnlyReanchor)
		kn.rr = win.RR()
	}

	run.Record(kn.resNorm())
	run.Callback(res.Iterations, kn.resNorm())
	return nil
}

// Finish puts the true residual at exit into the start-up scratch.
func (kn *vrcgKernel) Finish(run *engine.Run) { run.TrueResidual(run.Ws.Vec(1), run.Res.X) }
