// Package block implements the block conjugate gradient methods —
// blockcg and blockpcg — on the engine kernel contract, at the width a
// solve runs them: one right-hand side. O'Leary's block iteration
// (1980) carries s columns through one Krylov space with s×s Gram
// solves; at s = 1 each Gram is a scalar and its pivoted Cholesky
// solve is λ = (c/√s)/√s, which is what this kernel computes. Every
// iteration performs one product and three reductions — the
// curvature p·q, the residual norm and z·r — and three updates.
//
// Like every engine kernel, all vectors come from the workspace arena,
// so warm repeated solves allocate nothing.
package block

import (
	"fmt"
	"math"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/sparse"
)

// Kernel is the block CG / block PCG iteration at width one.
type Kernel struct {
	label string
	withM bool // blockpcg: apply Config.Precond (identity when nil)

	x, r, p, q, z vec.Vector // z aliases r for blockcg (M = I, no copy)

	bn   float64 // ‖b‖, 1 for a zero b
	rn   float64 // recursive residual norm
	rz   float64 // z·r of the current residual
	done bool    // rn met Tol·‖b‖: the next Step ends the loop

	// One-element operands of ws.Dots and ws.Combine, the batch and
	// combination leaves the iteration's inner products and updates run
	// on.
	out, coef [1]float64
	xs, ys    [1]vec.Vector

	m     precond.Preconditioner
	ident *precond.Identity
}

// NewCGKernel returns the blockcg iteration kernel.
func NewCGKernel() *Kernel { return &Kernel{label: "blockcg"} }

// NewPCGKernel returns the blockpcg iteration kernel.
func NewPCGKernel() *Kernel { return &Kernel{label: "blockpcg", withM: true} }

// Name implements engine.Kernel.
func (kn *Kernel) Name() string { return kn.label }

// dot returns <x, y> as a one-pair ws.Dots.
func (kn *Kernel) dot(ws *engine.Workspace, x, y vec.Vector) float64 {
	kn.xs[0], kn.ys[0] = x, y
	ws.Dots(kn.out[:], kn.xs[:], kn.ys[:])
	return kn.out[0]
}

// combine computes dst = init + c*x as a one-term ws.Combine (a zero c
// leaves init).
func (kn *Kernel) combine(ws *engine.Workspace, dst, init vec.Vector, c float64, x vec.Vector) {
	kn.coef[0], kn.xs[0] = c, x
	ws.Combine(dst, init, kn.coef[:], kn.xs[:])
}

// scaledResidual is rn·‖b‖/‖b‖: the block method's per-column criterion
// rn <= Tol·‖b‖ stated in the driver's units.
func (kn *Kernel) scaledResidual() float64 { return kn.rn * kn.bn / kn.bn }

// Init implements engine.Kernel: it forms the initial residual, seeds
// p = z and takes z·r.
func (kn *Kernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	n := ws.Dim()

	if kn.withM {
		kn.m = run.Cfg.Precond
		if kn.m == nil {
			if kn.ident == nil || kn.ident.Dim() != n {
				kn.ident = precond.NewIdentity(n)
			}
			kn.m = kn.ident
		}
		if kn.m.Dim() != n {
			return 0, fmt.Errorf("block: preconditioner order %d for matrix order %d: %w",
				kn.m.Dim(), n, sparse.ErrDim)
		}
	}

	kn.x, kn.r, kn.p, kn.q = ws.Vec(0), ws.Vec(1), ws.Vec(2), ws.Vec(3)
	kn.z = kn.r
	if kn.withM {
		kn.z = ws.Vec(4)
	}
	kn.bn = vec.Norm2(run.B)
	if kn.bn == 0 {
		kn.bn = 1
	}

	run.InitialIterate(kn.x, kn.r)
	kn.rn = vec.Norm2(kn.r)
	run.Res.Stats.InnerProducts++
	run.Res.Stats.Flops += 2 * int64(n)
	if kn.withM {
		ws.ApplyPrecond(kn.m, kn.z, kn.r)
		run.Res.Stats.PrecondSolves++
	}
	vec.Copy(kn.p, kn.z)

	// A residual already at tolerance (zero b, lucky X0) takes no z·r.
	kn.done = kn.rn <= run.Cfg.Tol*kn.bn
	if !kn.done {
		kn.rz = kn.dot(ws, kn.z, kn.r)
		run.Res.Stats.InnerProducts++
		run.Res.Stats.Flops += 2 * int64(n)
	}
	return kn.scaledResidual(), nil
}

// Residual implements engine.Kernel.
func (kn *Kernel) Residual(*engine.Run) float64 { return kn.scaledResidual() }

// Step implements engine.Kernel: one iteration — the product q = A p,
// λ = (z·r)/(p·q), x += λp, r -= λq, z = M r, β = (z·r)'/(z·r) and
// p = z + βp — with one Tick.
func (kn *Kernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res
	n := int64(ws.Dim())
	if kn.done {
		run.Stop()
		return nil
	}

	run.MatVec(kn.q, kn.p)
	pq := kn.dot(ws, kn.p, kn.q)
	res.Stats.InnerProducts++
	res.Stats.Flops += 2 * n
	lam, err := solve1(pq, kn.rz)
	if err != nil {
		return fmt.Errorf("block: curvature p·q = %g at iteration %d: %w", pq, res.Iterations, err)
	}

	kn.combine(ws, kn.x, kn.x, lam, kn.p)
	kn.combine(ws, kn.r, kn.r, -lam, kn.q)
	res.Stats.VectorUpdates += 2
	res.Stats.Flops += 4 * n

	kn.rn = vec.Norm2(kn.r)
	if math.IsNaN(kn.rn) || math.IsInf(kn.rn, 0) {
		return fmt.Errorf("block: non-finite residual at iteration %d: %w",
			res.Iterations, engine.ErrBreakdown)
	}
	res.Stats.InnerProducts++
	res.Stats.Flops += 2 * n

	if kn.withM {
		ws.ApplyPrecond(kn.m, kn.z, kn.r)
		res.Stats.PrecondSolves++
	}
	rzNew := kn.dot(ws, kn.z, kn.r)
	res.Stats.InnerProducts++
	res.Stats.Flops += 2 * n
	beta, err := solve1(kn.rz, rzNew)
	if err != nil {
		return fmt.Errorf("block: z·r = %g at iteration %d: %w", kn.rz, res.Iterations, err)
	}

	// p = z + βp, built in q (dead until the next product), then swapped in.
	kn.combine(ws, kn.q, kn.z, beta, kn.p)
	kn.p, kn.q = kn.q, kn.p
	res.Stats.VectorUpdates++
	res.Stats.Flops += 2 * n

	kn.rz = rzNew
	run.Tick(kn.scaledResidual())
	kn.done = kn.rn <= run.Cfg.Tol*kn.bn
	return nil
}

// Finish implements engine.Kernel: the true residual ‖b − A x‖, scaled
// as the iteration's residual is; a NaN reads 0.
func (kn *Kernel) Finish(run *engine.Run) {
	run.ResidualInto(kn.q, kn.x) // q is dead after the loop
	run.Res.TrueResidualNorm = 0
	if t := vec.Norm2(kn.q) * kn.bn / kn.bn; t > 0 {
		run.Res.TrueResidualNorm = t
	}
}

// solve1 solves the 1×1 Gram system s·λ = c by its Cholesky factor √s:
// λ = (c/√s)/√s. A negative s is negative curvature
// (engine.ErrIndefinite); zero and +Inf fail the rank test
// s <= 1e-14·s of the s×s pivoted factorization (engine.ErrBreakdown);
// a NaN passes through to the residual check.
func solve1(s, c float64) (float64, error) {
	switch {
	case s < 0:
		return 0, engine.ErrIndefinite
	case s == 0 || math.IsInf(s, 1):
		return 0, engine.ErrBreakdown
	}
	l := math.Sqrt(s)
	return c / l / l, nil
}
