// Package gkrylov implements the general-operator Krylov kernels: the
// methods that drop the SPD requirement every solver in internal/krylov
// carries. BiCGStab and restarted GMRES(m) handle square nonsymmetric
// systems; CGNR and LSQR solve least-squares problems min ||b - A x||
// over rectangular operators through the sparse transpose-product path
// (sparse.TransposeMulVec).
//
// Every method is an engine kernel (internal/engine) like the classic
// iterations: the driver owns defaults, convergence, callbacks, and
// history, while this package owns only the numerics. All vectors come
// from the workspace arena — column-space vectors from Vec, row-space
// and Hessenberg/Givens scratch from the length-keyed VecN arena — so a
// warm repeated solve performs zero heap allocations, the property the
// public solve.Session extends to these methods.
//
// Convergence semantics: BiCGStab and GMRES target the usual relative
// residual ||b - A x|| <= tol*||b||. The least-squares methods
// additionally stop at the normal-equations stationarity point
// ||Aᵀ(b - A x)|| <= tol*||Aᵀb||, which is the correct exit for
// inconsistent systems where ||r|| cannot reach the residual threshold.
package gkrylov

import (
	"fmt"
	"math"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
)

// requireTranspose fails with engine.ErrUnsupportedOperator when the operator
// cannot apply its transpose (Run.AT is nil).
func requireTranspose(run *engine.Run, method string) error {
	if run.AT == nil {
		return fmt.Errorf("gkrylov: %s needs transpose products but the operator does not implement sparse.TransposeMulVec: %w",
			method, engine.ErrUnsupportedOperator)
	}
	return nil
}

// bicgstabKernel is van der Vorst's stabilized bi-conjugate gradient
// method for square nonsymmetric systems: two matvecs per iteration, no
// transpose product, smooth residual decrease where plain BiCG
// oscillates.
type bicgstabKernel struct {
	x, r, rhat, p, v, s, t vec.Vector
	rho, alpha, omega      float64
	rnorm                  float64
}

// NewBiCGStabKernel returns the bicgstab iteration kernel.
func NewBiCGStabKernel() engine.Kernel { return &bicgstabKernel{} }

func (k *bicgstabKernel) Name() string { return "bicgstab" }

func (k *bicgstabKernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	k.x, k.r, k.rhat = ws.Vec(0), ws.Vec(1), ws.Vec(2)
	k.p, k.v, k.s, k.t = ws.Vec(3), ws.Vec(4), ws.Vec(5), ws.Vec(6)
	run.InitialIterate(k.x, k.r)
	vec.Copy(k.rhat, k.r)
	vec.Zero(k.p)
	vec.Zero(k.v)
	k.rho, k.alpha, k.omega = 1, 1, 1
	k.rnorm = ws.Norm2(k.r)
	return k.rnorm, nil
}

func (k *bicgstabKernel) Residual(*engine.Run) float64 { return k.rnorm }

func (k *bicgstabKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res

	rhoNew := ws.Dot(k.rhat, k.r)
	if rhoNew == 0 || math.IsNaN(rhoNew) || math.IsInf(rhoNew, 0) {
		return fmt.Errorf("gkrylov: (r̂,r) = %g at iteration %d: %w", rhoNew, res.Iterations, engine.ErrBreakdown)
	}
	beta := (rhoNew / k.rho) * (k.alpha / k.omega)

	// p = r + beta*(p - omega*v)
	ws.Axpy(-k.omega, k.v, k.p)
	ws.Xpay(k.r, beta, k.p)

	run.MatVec(k.v, k.p)

	rhv := ws.Dot(k.rhat, k.v)
	if rhv == 0 {
		return fmt.Errorf("gkrylov: (r̂,Ap) vanished at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	k.alpha = rhoNew / rhv

	// s = r - alpha*v; the half-step iterate x + alpha*p may already
	// satisfy the tolerance, in which case the second matvec is skipped.
	vec.Copy(k.s, k.r)
	ws.Axpy(-k.alpha, k.v, k.s)
	snorm := ws.Norm2(k.s)
	if snorm <= run.Threshold {
		ws.Axpy(k.alpha, k.p, k.x)
		vec.Copy(k.r, k.s)
		k.rho = rhoNew
		k.rnorm = snorm
		run.Tick(k.rnorm)
		run.Stop()
		return nil
	}

	run.MatVec(k.t, k.s)

	ts, tt := ws.DotPair(k.t, k.s, k.t)
	if tt == 0 {
		return fmt.Errorf("gkrylov: ||As|| vanished at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	k.omega = ts / tt
	if k.omega == 0 || math.IsNaN(k.omega) || math.IsInf(k.omega, 0) {
		return fmt.Errorf("gkrylov: stabilization weight %g at iteration %d: %w", k.omega, res.Iterations, engine.ErrBreakdown)
	}

	// x += alpha*p + omega*s; r = s - omega*t.
	ws.Axpy(k.alpha, k.p, k.x)
	ws.Axpy(k.omega, k.s, k.x)
	vec.Copy(k.r, k.s)
	ws.Axpy(-k.omega, k.t, k.r)

	k.rho = rhoNew
	k.rnorm = ws.Norm2(k.r)
	if math.IsNaN(k.rnorm) || math.IsInf(k.rnorm, 0) {
		return fmt.Errorf("gkrylov: non-finite residual at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	run.Tick(k.rnorm)
	return nil
}

func (k *bicgstabKernel) Finish(run *engine.Run) { run.TrueResidual(k.t, k.x) }
