package gkrylov

import (
	"fmt"
	"math"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/sparse"
)

// VecN arena indices for the row-space vectors of the least-squares
// kernels (column-space vectors come from the ordinary Vec arena).
const (
	lsRow0 = iota // residual / bidiagonalization u
	lsRow1        // A·p scratch / u-update scratch
)

// rowDim returns the operator's row count (== Dim for square operators).
func rowDim(a sparse.Matrix) int {
	rows, _ := sparse.Dims(a)
	return rows
}

// cgnrKernel runs conjugate gradients on the normal equations
// AᵀA x = Aᵀb without forming AᵀA: one forward and one transpose
// product per iteration. It solves min ||b - A x|| for any full
// column-rank operator, square or rectangular.
type cgnrKernel struct {
	x, z, p vec.Vector // column space
	r, ap   vec.Vector // row space
	zz      float64    // ||Aᵀr||²
	rnorm   float64
	atbTol  float64 // stationarity threshold tol*||Aᵀb||
}

// NewCGNRKernel returns the cgnr iteration kernel.
func NewCGNRKernel() engine.Kernel { return &cgnrKernel{} }

func (k *cgnrKernel) Name() string { return "cgnr" }

func (k *cgnrKernel) Init(run *engine.Run) (float64, error) {
	if err := requireTranspose(run, "cgnr"); err != nil {
		return 0, err
	}
	ws := run.Ws
	rows := rowDim(run.A)
	k.x, k.z, k.p = ws.Vec(0), ws.Vec(1), ws.Vec(2)
	k.r, k.ap = ws.VecN(lsRow0, rows), ws.VecN(lsRow1, rows)

	run.InitialIterate(k.x, k.r)
	k.rnorm = ws.Norm2(k.r)

	run.Ws.MatVecT(run.AT, k.z, k.r)
	vec.Copy(k.p, k.z)
	k.zz = ws.Dot(k.z, k.z)
	if k.zz == 0 && k.rnorm > run.Threshold {
		return 0, fmt.Errorf("gkrylov: Aᵀr vanished at start (rank-deficient or zero operator): %w", engine.ErrBreakdown)
	}

	// Stationarity scale: tol*||Aᵀb||. With a zero initial guess Aᵀr
	// already is Aᵀb; a warm start must NOT rescale the threshold to its
	// (small) initial gradient — that would demand tol-relative progress
	// from wherever the solve begins and erase the warm-start payoff — so
	// compute ||Aᵀb|| explicitly in that case.
	k.atbTol = run.Cfg.Tol * math.Sqrt(k.zz)
	if run.Cfg.X0 != nil {
		if atb := atbNorm(run, ws.Vec(3)); atb > 0 {
			k.atbTol = run.Cfg.Tol * atb
		}
	}
	return k.rnorm, nil
}

// atbNorm computes ||Aᵀb|| into the given column-space scratch vector.
func atbNorm(run *engine.Run, scratch vec.Vector) float64 {
	run.Ws.MatVecT(run.AT, scratch, run.B)
	return run.Ws.Norm2(scratch)
}

func (k *cgnrKernel) Residual(*engine.Run) float64 { return k.rnorm }

func (k *cgnrKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res

	run.MatVec(k.ap, k.p)

	ww := ws.Dot(k.ap, k.ap)
	if ww == 0 {
		return fmt.Errorf("gkrylov: ||Ap|| vanished at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	alpha := k.zz / ww

	ws.Axpy(alpha, k.p, k.x)
	ws.Axpy(-alpha, k.ap, k.r)

	run.Ws.MatVecT(run.AT, k.z, k.r)
	zzNew := ws.Dot(k.z, k.z)
	if math.IsNaN(zzNew) || math.IsInf(zzNew, 0) {
		return fmt.Errorf("gkrylov: non-finite gradient at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}

	beta := zzNew / k.zz
	ws.Xpay(k.z, beta, k.p)
	k.zz = zzNew

	k.rnorm = ws.Norm2(k.r)
	run.Tick(k.rnorm)

	// Least-squares stationarity: for inconsistent systems ||r|| never
	// reaches the driver threshold, but ||Aᵀr|| -> 0 at the minimizer.
	if math.Sqrt(k.zz) <= k.atbTol {
		res.Converged = true
		run.Stop()
	}
	return nil
}

func (k *cgnrKernel) Finish(run *engine.Run) {
	run.TrueResidual(k.ap, k.x)
	run.Res.ResidualNorm = k.rnorm
}

// lsqrKernel is Paige & Saunders' LSQR: Golub-Kahan bidiagonalization
// with the least-squares subproblem solved by a QR factorization updated
// one Givens rotation per iteration. Analytically equivalent to CGNR but
// substantially more stable on ill-conditioned operators, which is why
// both are provided and their agreement is a property test.
type lsqrKernel struct {
	x, v, w, vt vec.Vector // column space
	u, ut       vec.Vector // row space
	alpha       float64
	phibar      float64 // current ||r|| estimate
	rhobar      float64
	atbTol      float64
	atrEst      float64 // current ||Aᵀr|| estimate
}

// NewLSQRKernel returns the lsqr iteration kernel.
func NewLSQRKernel() engine.Kernel { return &lsqrKernel{} }

func (k *lsqrKernel) Name() string { return "lsqr" }

func (k *lsqrKernel) Init(run *engine.Run) (float64, error) {
	if err := requireTranspose(run, "lsqr"); err != nil {
		return 0, err
	}
	ws := run.Ws
	rows := rowDim(run.A)
	k.x, k.v, k.w, k.vt = ws.Vec(0), ws.Vec(1), ws.Vec(2), ws.Vec(3)
	k.u, k.ut = ws.VecN(lsRow0, rows), ws.VecN(lsRow1, rows)

	// u = (b - A x0)/beta, v = Aᵀu/alpha: the first bidiagonalization
	// step, seeded from the initial residual so warm starts carry over.
	run.InitialIterate(k.x, k.u)
	beta := ws.Norm2(k.u)
	if beta == 0 {
		// x0 is already exact; the driver sees rnorm 0 and converges.
		k.phibar, k.atrEst = 0, 0
		return 0, nil
	}
	ws.Scale(1/beta, k.u)

	run.Ws.MatVecT(run.AT, k.v, k.u)
	k.alpha = ws.Norm2(k.v)
	if k.alpha == 0 {
		return 0, fmt.Errorf("gkrylov: Aᵀu vanished at start (rank-deficient or zero operator): %w", engine.ErrBreakdown)
	}
	ws.Scale(1/k.alpha, k.v)
	vec.Copy(k.w, k.v)

	k.phibar = beta
	k.rhobar = k.alpha
	k.atrEst = k.alpha * beta // ||Aᵀr0||
	// Same warm-start convention as cgnr: the stationarity threshold is
	// anchored to ||Aᵀb||, not the initial gradient, so warm-started
	// sequence steps converge early instead of chasing a moving target.
	k.atbTol = run.Cfg.Tol * k.atrEst
	if run.Cfg.X0 != nil {
		if atb := atbNorm(run, k.vt); atb > 0 {
			k.atbTol = run.Cfg.Tol * atb
		}
	}
	return k.phibar, nil
}

func (k *lsqrKernel) Residual(*engine.Run) float64 { return k.phibar }

func (k *lsqrKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res

	// Continue the bidiagonalization: beta u⁺ = A v - alpha u.
	run.MatVec(k.ut, k.v)
	ws.Axpy(-k.alpha, k.u, k.ut)
	beta := ws.Norm2(k.ut)
	if beta > 0 {
		vec.Copy(k.u, k.ut)
		ws.Scale(1/beta, k.u)
	}

	// alpha v⁺ = Aᵀu⁺ - beta v.
	run.Ws.MatVecT(run.AT, k.vt, k.u)
	ws.Axpy(-beta, k.v, k.vt)
	alphaNew := ws.Norm2(k.vt)
	if alphaNew > 0 {
		vec.Copy(k.v, k.vt)
		ws.Scale(1/alphaNew, k.v)
	}
	k.alpha = alphaNew

	// One Givens rotation updates the QR of the bidiagonal system.
	rho := math.Hypot(k.rhobar, beta)
	if rho == 0 {
		return fmt.Errorf("gkrylov: bidiagonal pivot vanished at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	c := k.rhobar / rho
	s := beta / rho
	theta := s * k.alpha
	k.rhobar = -c * k.alpha
	phi := c * k.phibar
	k.phibar = s * k.phibar

	ws.Axpy(phi/rho, k.w, k.x)
	ws.Xpay(k.v, -theta/rho, k.w)

	if math.IsNaN(k.phibar) || math.IsInf(k.phibar, 0) {
		return fmt.Errorf("gkrylov: non-finite residual estimate at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	k.atrEst = k.phibar * k.alpha * math.Abs(c)
	run.Tick(k.phibar)

	if k.atrEst <= k.atbTol {
		res.Converged = true
		run.Stop()
	}
	return nil
}

func (k *lsqrKernel) Finish(run *engine.Run) {
	run.TrueResidual(k.ut, k.x)
	run.Res.ResidualNorm = k.phibar
}
