package krylov

import (
	"fmt"
	"math"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
)

// minresKernel is the minimum-residual method of Paige & Saunders
// (1975): a Lanczos tridiagonalization with on-the-fly Givens QR. For
// SPD systems it behaves like conjugate residuals; its value here is
// completing the symmetric-solver family (CG requires definiteness,
// MINRES does not). The historical implementation allocated a fresh
// direction vector every iteration; the kernel rotates three fixed
// buffers instead, so it is allocation-free like every other kernel.
type minresKernel struct {
	x, v, vPrev, av, w, wPrev, wTmp vec.Vector

	phi                     float64
	cs, sn                  float64
	dltn, epsPrev, betaPrev float64
}

// NewMINRESKernel returns the minres iteration kernel.
func NewMINRESKernel() engine.Kernel { return &minresKernel{} }

func (k *minresKernel) Name() string { return "minres" }

func (k *minresKernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	k.x, k.v, k.vPrev = ws.Vec(0), ws.Vec(1), ws.Vec(2)
	k.av, k.w, k.wPrev, k.wTmp = ws.Vec(3), ws.Vec(4), ws.Vec(5), ws.Vec(6)

	// r = b - A x, formed directly in the first Lanczos vector's buffer.
	run.InitialIterate(k.x, k.v)

	beta := ws.Norm2(k.v)
	k.phi = beta
	if k.phi <= run.Threshold {
		// Already converged; the driver's loop-top check exits before
		// Step, so the Lanczos state is never touched.
		return k.phi, nil
	}

	ws.Scale(1/beta, k.v)
	vec.Zero(k.vPrev)
	vec.Zero(k.w)
	vec.Zero(k.wPrev)

	k.cs, k.sn = -1, 0
	k.dltn, k.epsPrev = 0, 0
	k.betaPrev = beta
	return k.phi, nil
}

func (k *minresKernel) Residual(*engine.Run) float64 { return k.phi }

func (k *minresKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res

	run.MatVec(k.av, k.v)

	alpha := ws.Dot(k.v, k.av)
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		// Every scalar below would be NaN, and no comparison there
		// catches one: stop before a vector is written.
		return fmt.Errorf("krylov: MINRES (v,Av) = %g at iteration %d: %w", alpha, res.Iterations, engine.ErrBreakdown)
	}

	// av <- av - alpha*v - betaPrev*vPrev
	ws.Axpy(-alpha, k.v, k.av)
	ws.Axpy(-k.betaPrev, k.vPrev, k.av)

	betaNext := ws.Norm2(k.av)

	// Apply the previous rotations to the new tridiagonal column.
	delta := k.cs*k.dltn + k.sn*alpha
	gbar := k.sn*k.dltn - k.cs*alpha
	eps := k.epsPrev
	k.epsPrev = k.sn * betaNext
	k.dltn = -k.cs * betaNext

	// New rotation annihilating betaNext.
	gamma := math.Hypot(gbar, betaNext)
	if gamma == 0 {
		return fmt.Errorf("krylov: MINRES breakdown at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	k.cs = gbar / gamma
	k.sn = betaNext / gamma

	// Update the solution direction and iterate:
	// wNew = (v - delta*w - eps*wPrev)/gamma, built in the spare buffer.
	vec.Copy(k.wTmp, k.v)
	ws.Axpy(-delta, k.w, k.wTmp)
	ws.Axpy(-eps, k.wPrev, k.wTmp)
	ws.Scale(1/gamma, k.wTmp)

	ws.Axpy(k.phi*k.cs, k.wTmp, k.x)
	k.phi = math.Abs(k.phi * k.sn)

	k.wPrev, k.w, k.wTmp = k.w, k.wTmp, k.wPrev

	// Advance the Lanczos recurrence by rotating the three v-buffers.
	if betaNext > 0 {
		k.vPrev, k.v, k.av = k.v, k.av, k.vPrev
		ws.Scale(1/betaNext, k.v)
	}
	k.betaPrev = betaNext

	res.Iterations++
	run.Record(k.phi)
	if k.phi <= run.Threshold {
		// Converged: the driver's loop-top check exits; the historical
		// code skipped the callback on the converging iteration, so the
		// kernel does too.
		return nil
	}
	if !run.Callback(res.Iterations, k.phi) {
		return nil
	}
	if betaNext == 0 {
		// Krylov space exhausted: the current iterate is exact (in
		// exact arithmetic).
		run.Stop()
	}
	return nil
}

func (k *minresKernel) Finish(run *engine.Run) {
	run.TrueResidual(k.wTmp, k.x)
	// Trust the directly computed residual for the convergence flag.
	if run.Res.TrueResidualNorm <= run.Threshold*1.01 {
		run.Res.Converged = true
	}
}
