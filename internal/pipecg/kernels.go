package pipecg

import (
	"fmt"
	"math"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
)

// gvKernel is Ghysels–Vanroose single-reduction pipelined CG. Per
// iteration: one reduction (gamma = (r,r), delta = (w,r)), one matvec
// (n = A w) issued between that reduction's issue and its await, and
// the vector recurrences
//
//	p = r + beta p;  s = w + beta s (= A p);  q = n + beta q (= A s)
//	x += alpha p;  r -= alpha s;  w -= alpha q (= A r maintained)
//
// Everything between the product and the reduction is one Workspace call
// (IssuePipeUpdate), and where its sums are taken is the workspace's
// decision, not the kernel's: inside that one pass on a serial workspace;
// after six pooled calls on a pooled one, at issue under the registry's
// "pipecg" (engine.Config.Blocking) and on a background goroutine under
// "parcg-pipe"; posted to the other row blocks of a fleet and collected
// after the product. All are bitwise identical. The price of the
// pipelined order is one speculative matvec past convergence.
type gvKernel struct {
	x, r, w, p, s, q, nv vec.Vector

	gamma, delta       float64
	gammaOld, alphaOld float64
	first              bool
}

// NewGVKernel returns the pipecg (Ghysels–Vanroose) iteration kernel.
func NewGVKernel() engine.Kernel { return &gvKernel{} }

func (k *gvKernel) Name() string { return "pipecg" }

func (k *gvKernel) resNorm() float64 { return math.Sqrt(math.Max(k.gamma, 0)) }

func (k *gvKernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	k.x, k.r, k.w = ws.Vec(0), ws.Vec(1), ws.Vec(2)
	k.p, k.s, k.q, k.nv = ws.Vec(3), ws.Vec(4), ws.Vec(5), ws.Vec(6)

	run.InitialIterate(k.x, k.r)
	run.MatVec(k.w, k.r)
	vec.Zero(k.p)
	vec.Zero(k.s)
	vec.Zero(k.q)

	// The one reduction of a solve taken outside IssuePipeUpdate, and
	// waited for: issued over the product below it would start an
	// overlapped schedule's reducer goroutine for this pair alone.
	k.gamma, k.delta = ws.DotPair(k.r, k.r, k.w)
	run.MatVec(k.nv, k.w)
	k.gammaOld, k.alphaOld = 0, 0
	k.first = true
	return k.resNorm(), nil
}

func (k *gvKernel) Residual(*engine.Run) float64 { return k.resNorm() }

func (k *gvKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res

	var beta, alpha float64
	if k.first {
		beta = 0
		if k.delta == 0 {
			return fmt.Errorf("pipecg: (w,r) vanished at startup: %w", engine.ErrBreakdown)
		}
		alpha = k.gamma / k.delta
		k.first = false
	} else {
		beta = k.gamma / k.gammaOld
		den := k.delta - beta*k.gamma/k.alphaOld
		if den == 0 || math.IsNaN(den) {
			return fmt.Errorf("pipecg: pipelined scalar breakdown at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
		}
		alpha = k.gamma / den
	}
	if err := engine.CheckCurvature(alpha); err != nil {
		return fmt.Errorf("pipecg: step %g at iteration %d: %w", alpha, res.Iterations, err)
	}

	// The reduction of the new r, w is in flight over the next
	// iteration's n = A w.
	ws.IssuePipeUpdate(alpha, beta, k.r, k.w, k.nv, k.p, k.s, k.q, k.x)
	run.MatVec(k.nv, k.w)
	k.gammaOld, k.alphaOld = k.gamma, alpha
	k.gamma, k.delta = ws.AwaitDotPair()
	run.Tick(k.resNorm())
	return nil
}

// Finish puts the true residual into nv (no longer needed this solve).
func (k *gvKernel) Finish(run *engine.Run) { run.TrueResidual(k.nv, k.x) }

// groppKernel is Gropp's asynchronous variant: two reductions per
// iteration, each overlapped with one of the two matvec-shaped
// operations, using the auxiliary vector s = A p. Unpreconditioned,
// only the second has something to hide behind: (r,r) is issued before
// w = A r and awaited after it.
type groppKernel struct {
	x, r, p, s, w vec.Vector
	gamma         float64
}

// NewGroppKernel returns the gropp iteration kernel.
func NewGroppKernel() engine.Kernel { return &groppKernel{} }

func (k *groppKernel) Name() string { return "gropp" }

func (k *groppKernel) resNorm() float64 { return math.Sqrt(math.Max(k.gamma, 0)) }

func (k *groppKernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	k.x, k.r, k.p, k.s, k.w = ws.Vec(0), ws.Vec(1), ws.Vec(2), ws.Vec(3), ws.Vec(4)

	run.InitialIterate(k.x, k.r)
	vec.Copy(k.p, k.r)
	run.MatVec(k.s, k.p)

	k.gamma = ws.Dot(k.r, k.r)
	return k.resNorm(), nil
}

func (k *groppKernel) Residual(*engine.Run) float64 { return k.resNorm() }

func (k *groppKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res

	// First reduction: delta = (p, s). (In the preconditioned form it
	// overlaps with the preconditioner solve.)
	delta := ws.Dot(k.p, k.s)
	if err := engine.CheckCurvature(delta); err != nil {
		return fmt.Errorf("pipecg: curvature %g at iteration %d: %w", delta, res.Iterations, err)
	}
	alpha := k.gamma / delta

	// x += alpha p, r -= alpha s and the second reduction gamma' = (r, r)
	// in one pass (cg's), the reduction in flight over the single matvec
	// w = A r.
	ws.IssueFusedCGUpdate(alpha, k.p, k.s, k.x, k.r)
	run.MatVec(k.w, k.r)
	gammaNew := ws.AwaitSum()

	beta := gammaNew / k.gamma
	ws.Xpay(k.r, beta, k.p)
	ws.Xpay(k.w, beta, k.s) // s = A p maintained by recurrence

	k.gamma = gammaNew
	run.Tick(k.resNorm())
	return nil
}

func (k *groppKernel) Finish(run *engine.Run) { run.TrueResidual(k.w, k.x) }
