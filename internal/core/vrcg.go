package core

import (
	"math"

	"vrcg/internal/engine"
)

// DefaultReanchorInterval returns the re-anchoring interval used when
// Config.ReanchorEvery is zero: 8 at k=0, 6 at k=1 and 2, 2 above. A
// re-anchor costs 2k+1 products and 6k+6 dots, so the interval is the
// longest at which vrcg was measured to keep cg's iteration count —
// tol 1e-8, four random right-hand sides each on Poisson2D(64) and
// (128), Poisson3D(24), Poisson1D(512), RandomSPD(4096) and
// PrescribedSpectrum(2000) at κ = 1e4 and 1e6:
//
//	every 6   cg's count (+1 at most) for k = 0…4 on the first five,
//	          within 1.02× (κ = 1e4) and 1.06× (κ = 1e6) of it
//	every 8   k ≤ 2 as every 6; k = 3 takes 666 and 831 for cg's 512 on
//	          Poisson1D(512), k = 4 from 954 to 9283
//	every 12  k = 2 does not converge on Poisson1D(512) in 20000
//
// so k ≤ 2 sits one step inside the edge, where ceil(8/(k+1)) had it
// re-anchor every 4 and every 3 iterations. From k = 3 that rule's floor
// of 2 stays: every 6 loses Poisson1D(64) at tol 1e-9
// (TestSolveConvergesVariousProblems) — the windows span powers up to
// 2k+3, and cancellation amplifies with them.
func DefaultReanchorInterval(k int) int {
	switch {
	case k == 0:
		return 8
	case k <= 2:
		return 6
	}
	return 2
}

func validateDrift(ws *engine.Workspace, res *engine.Result, fam *Families, rrRec, papRec float64) {
	rrDir := ws.Dot(fam.Residual(), fam.Residual())
	papDir := ws.Dot(fam.Direction(), fam.AP())
	res.ValidationDots += 2
	res.Drift.Checks++
	if d := relErr(rrRec, rrDir); d > res.Drift.MaxRelRR {
		res.Drift.MaxRelRR = d
	}
	if d := relErr(papRec, papDir); d > res.Drift.MaxRelPAP {
		res.Drift.MaxRelPAP = d
	}
}

func relErr(got, want float64) float64 {
	den := math.Abs(want)
	if den < 1e-300 {
		den = 1e-300
	}
	return math.Abs(got-want) / den
}

func reanchor(run *engine.Run, fam *Families, win *Window, refresh bool) {
	res := run.Res
	if refresh {
		fam.Regrow(runOp{run})
		fam.Top(runOp{run})
		res.Refreshes++
	}
	win.InitDirect(run.Ws, fam)
	res.Reanchors++
}
