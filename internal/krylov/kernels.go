package krylov

import (
	"fmt"
	"math"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/sparse"
)

// This file holds the engine kernels for the classic iterations: cg
// (fused-update CG; the registry also serves it as "cgfused" and
// "blockcg"), pcg (also served as "blockpcg"), cr, and sd. Each kernel
// implements engine.Kernel — Init/Step/Residual/Finish — and draws
// every vector from the engine workspace arena, so a warm repeated
// solve allocates nothing. The MINRES kernel lives in minres.go.

// cgKernel is standard Hestenes–Stiefel CG (paper §2) scheduled around
// its two inner products, which are all that anything in an iteration
// has to wait for: one sweep over memory ends in each. ws.Direction is
// p = r + beta p, ap = A p and (p,ap); FusedCGUpdate is x += lambda p,
// r -= lambda ap and (r,r). On an operator the engine can sweep by rows
// that is two passes over memory where the six steps taken one at a
// time make four — the sequential analogue of how the restructured
// algorithms batch everything between two reductions.
//
// The direction update therefore belongs to the step after the one that
// determines its beta: Step leaves it pending (src, beta) and the next
// Step's Direction applies it on the way to the product. Nothing between
// two steps reads p — the driver's convergence test and the callbacks see
// rr and x — and the update after the last iteration of a converged
// solve is never executed, nor counted: Direction counts it where it
// runs.
type cgKernel struct {
	x, r, p, ap vec.Vector
	rr          float64
	// src and beta are the pending update p = src + beta p; src is nil
	// when there is none (the first step: p = r already).
	src  vec.Vector
	beta float64
}

// NewCGKernel returns the cg iteration kernel.
func NewCGKernel() engine.Kernel { return &cgKernel{} }

func (k *cgKernel) Name() string { return "cg" }

func (k *cgKernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	k.x, k.r, k.p, k.ap = ws.Vec(0), ws.Vec(1), ws.Vec(2), ws.Vec(3)
	run.InitialIterate(k.x, k.r)
	vec.Copy(k.p, k.r)
	k.src = nil
	k.rr = ws.Dot(k.r, k.r)
	return math.Sqrt(k.rr), nil
}

func (k *cgKernel) Residual(*engine.Run) float64 { return math.Sqrt(k.rr) }

// curvature is engine.CheckCurvature with the iteration in the message.
func curvature(pap float64, iter int) error {
	if err := engine.CheckCurvature(pap); err != nil {
		return fmt.Errorf("krylov: curvature %g at iteration %d: %w", pap, iter, err)
	}
	return nil
}

func (k *cgKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res

	pap := ws.Direction(run.A, k.src, k.beta, k.p, k.ap)
	if err := curvature(pap, res.Iterations); err != nil {
		return err
	}
	lambda := k.rr / pap

	// The fused sweep: x += lambda p, r -= lambda ap, rr' = (r,r).
	rrNew := ws.FusedCGUpdate(lambda, k.p, k.ap, k.x, k.r)
	if math.IsNaN(rrNew) || math.IsInf(rrNew, 0) {
		return fmt.Errorf("krylov: non-finite residual at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}

	k.src, k.beta = k.r, rrNew/k.rr
	k.rr = rrNew
	run.Tick(math.Sqrt(k.rr))
	return nil
}

func (k *cgKernel) Finish(run *engine.Run) { run.TrueResidual(k.ap, k.x) }

// pcgKernel is preconditioned CG, iterating on the M-inner-product
// residual. A nil Config.Precond selects a kernel-cached identity (PCG
// arithmetic with M = I).
type pcgKernel struct {
	x, r, p, ap, z vec.Vector
	rr, rz         float64
	// src and beta are the pending update p = z + beta p, as in cgKernel.
	src   vec.Vector
	beta  float64
	m     precond.Preconditioner
	ident *precond.Identity
	// (r,z) and (r,r) are one reduction: sums[i] = <rv[i], zr[i]>.
	sums   [2]float64
	rv, zr [2]vec.Vector
}

// residualDots takes (r,z) and (r,r) in one reduction.
func (k *pcgKernel) residualDots(run *engine.Run) (rz, rr float64) {
	run.Ws.Dots(k.sums[:], k.rv[:], k.zr[:])
	return k.sums[0], k.sums[1]
}

// NewPCGKernel returns the pcg iteration kernel.
func NewPCGKernel() engine.Kernel { return &pcgKernel{} }

func (k *pcgKernel) Name() string { return "pcg" }

func (k *pcgKernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	n := ws.Dim()
	k.m = run.Cfg.Precond
	if k.m == nil {
		if k.ident == nil || k.ident.Dim() != n {
			k.ident = precond.NewIdentity(n)
		}
		k.m = k.ident
	}
	if k.m.Dim() != n {
		return 0, fmt.Errorf("krylov: preconditioner order %d for matrix order %d: %w", k.m.Dim(), n, sparse.ErrDim)
	}
	k.x, k.r, k.p, k.ap, k.z = ws.Vec(0), ws.Vec(1), ws.Vec(2), ws.Vec(3), ws.Vec(4)
	k.rv, k.zr = [2]vec.Vector{k.r, k.r}, [2]vec.Vector{k.z, k.r}
	run.InitialIterate(k.x, k.r)

	ws.ApplyPrecond(k.m, k.z, k.r)
	vec.Copy(k.p, k.z)
	k.src = nil
	k.rz, k.rr = k.residualDots(run)
	return math.Sqrt(k.rr), nil
}

func (k *pcgKernel) Residual(*engine.Run) float64 { return math.Sqrt(k.rr) }

func (k *pcgKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res

	pap := ws.Direction(run.A, k.src, k.beta, k.p, k.ap)
	if err := curvature(pap, res.Iterations); err != nil {
		return err
	}
	if k.rz == 0 {
		return fmt.Errorf("krylov: (r,z) vanished at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	lambda := k.rz / pap

	ws.Axpy(lambda, k.p, k.x)
	ws.Axpy(-lambda, k.ap, k.r)
	ws.ApplyPrecond(k.m, k.z, k.r)

	var rzNew float64
	rzNew, k.rr = k.residualDots(run)
	if math.IsNaN(rzNew) || math.IsInf(rzNew, 0) {
		return fmt.Errorf("krylov: non-finite (r,z) at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}

	k.src, k.beta = k.z, rzNew/k.rz
	k.rz = rzNew
	run.Tick(math.Sqrt(k.rr))
	return nil
}

func (k *pcgKernel) Finish(run *engine.Run) { run.TrueResidual(k.ap, k.x) }

// crKernel is the conjugate residual method, which minimizes
// ||b - A x|| over the Krylov space (CG minimizes the A-norm error).
type crKernel struct {
	x, r, p, ar, ap vec.Vector
	rar, rnorm      float64
}

// NewCRKernel returns the cr iteration kernel.
func NewCRKernel() engine.Kernel { return &crKernel{} }

func (k *crKernel) Name() string { return "cr" }

func (k *crKernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	k.x, k.r, k.p, k.ar, k.ap = ws.Vec(0), ws.Vec(1), ws.Vec(2), ws.Vec(3), ws.Vec(4)
	run.InitialIterate(k.x, k.r)

	vec.Copy(k.p, k.r)
	run.MatVec(k.ar, k.r)
	vec.Copy(k.ap, k.ar)

	k.rar = ws.Dot(k.r, k.ar)
	k.rnorm = ws.Norm2(k.r)
	return k.rnorm, nil
}

func (k *crKernel) Residual(*engine.Run) float64 { return k.rnorm }

func (k *crKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res

	apap := ws.Dot(k.ap, k.ap)
	if !(apap > 0) || math.IsInf(apap, 0) { // zero, or NaN, which == 0 lets through
		return fmt.Errorf("krylov: ||Ap||^2 = %g at iteration %d: %w", apap, res.Iterations, engine.ErrBreakdown)
	}
	alpha := k.rar / apap

	ws.Axpy(alpha, k.p, k.x)
	ws.Axpy(-alpha, k.ap, k.r)

	// Ar and (r,Ar) in one sweep; like sd's, with no update pending.
	rarNew := ws.Direction(run.A, nil, 0, k.r, k.ar)
	if math.IsNaN(rarNew) || math.IsInf(rarNew, 0) {
		return fmt.Errorf("krylov: non-finite (r,Ar) at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	if k.rar == 0 {
		return fmt.Errorf("krylov: (r,Ar) vanished at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	beta := rarNew / k.rar

	ws.Xpay(k.r, beta, k.p)
	ws.Xpay(k.ar, beta, k.ap)

	k.rar = rarNew
	k.rnorm = ws.Norm2(k.r)
	run.Tick(k.rnorm)
	return nil
}

func (k *crKernel) Finish(run *engine.Run) { run.TrueResidual(k.ap, k.x) }

// sdKernel is steepest descent with exact line search, the simplest
// baseline: linear convergence at rate (kappa-1)/(kappa+1).
type sdKernel struct {
	x, r, ar vec.Vector
	rr       float64
}

// NewSDKernel returns the sd iteration kernel.
func NewSDKernel() engine.Kernel { return &sdKernel{} }

func (k *sdKernel) Name() string { return "sd" }

func (k *sdKernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	k.x, k.r, k.ar = ws.Vec(0), ws.Vec(1), ws.Vec(2)
	run.InitialIterate(k.x, k.r)
	k.rr = ws.Dot(k.r, k.r)
	return math.Sqrt(k.rr), nil
}

func (k *sdKernel) Residual(*engine.Run) float64 { return math.Sqrt(k.rr) }

func (k *sdKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res

	// The direction is r itself: a sweep with no update pending.
	rar := ws.Direction(run.A, nil, 0, k.r, k.ar)
	if err := curvature(rar, res.Iterations); err != nil {
		return err
	}
	alpha := k.rr / rar

	ws.Axpy(alpha, k.r, k.x)
	ws.Axpy(-alpha, k.ar, k.r)

	k.rr = ws.Dot(k.r, k.r)
	if math.IsNaN(k.rr) || math.IsInf(k.rr, 0) {
		return fmt.Errorf("krylov: non-finite residual at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	run.Tick(math.Sqrt(k.rr))
	return nil
}

func (k *sdKernel) Finish(run *engine.Run) { run.TrueResidual(k.ar, k.x) }
