package gkrylov

import (
	"fmt"
	"math"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
)

// VecN arena indices for the GMRES restart-cycle scratch. All five live
// in the workspace's length-keyed arena, so a warm solve with the same
// restart length allocates nothing.
const (
	gmresH  = iota // flat (m+1)×m Hessenberg, row-major
	gmresCS        // Givens cosines, length m
	gmresSN        // Givens sines, length m
	gmresG         // rotated rhs of the least-squares problem, length m+1
	gmresY         // triangular-solve solution, length m
)

// gmresKernel is restarted GMRES(m) (Saad & Schultz): modified
// Gram-Schmidt Arnoldi over an m+1-vector basis held in the workspace
// arena, the small least-squares problem solved incrementally by Givens
// rotations. One engine Step is one restart cycle; Tick fires per inner
// Arnoldi step, so Result.Iterations counts Krylov dimensions built, not
// restarts. The residual is refreshed from b - A x at every restart, so
// the estimate the driver trusts never drifts.
type gmresKernel struct {
	x, r  vec.Vector
	m     int
	rnorm float64
}

// NewGMRESKernel returns the gmres iteration kernel.
func NewGMRESKernel() engine.Kernel { return &gmresKernel{} }

func (k *gmresKernel) Name() string { return "gmres" }

// basis returns the j-th Arnoldi basis vector: arena indices 2..2+m,
// after x (0) and r (1).
func (k *gmresKernel) basis(ws *engine.Workspace, j int) vec.Vector { return ws.Vec(2 + j) }

func (k *gmresKernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	k.m = run.Cfg.Restart
	if k.m < 0 {
		return 0, fmt.Errorf("gkrylov: restart length %d must be >= 1: %w", k.m, engine.ErrBadOption)
	}
	if k.m == 0 {
		k.m = 30
		if n := ws.Dim(); n < k.m {
			k.m = n
		}
	}
	k.x, k.r = ws.Vec(0), ws.Vec(1)
	run.InitialIterate(k.x, k.r)
	k.rnorm = ws.Norm2(k.r)
	return k.rnorm, nil
}

func (k *gmresKernel) Residual(*engine.Run) float64 { return k.rnorm }

// Step runs one restart cycle: build up to m Arnoldi vectors, stopping
// early on convergence of the rotated-residual estimate, then update x
// from the triangular solve and refresh the true residual.
func (k *gmresKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res
	m := k.m

	h := ws.VecN(gmresH, (m+1)*m)
	cs := ws.VecN(gmresCS, m)
	sn := ws.VecN(gmresSN, m)
	g := ws.VecN(gmresG, m+1)
	y := ws.VecN(gmresY, m)

	beta := k.rnorm
	if beta == 0 {
		run.Stop()
		return nil
	}
	v0 := k.basis(ws, 0)
	vec.Copy(v0, k.r)
	ws.Scale(1/beta, v0)
	vec.Zero(g)
	g[0] = beta

	// Arnoldi with modified Gram-Schmidt; j counts columns built.
	j := 0
	for ; j < m; j++ {
		w := k.basis(ws, j+1)
		run.MatVec(w, k.basis(ws, j))

		for i := 0; i <= j; i++ {
			vi := k.basis(ws, i)
			hij := ws.Dot(w, vi)
			h[i*m+j] = hij
			ws.Axpy(-hij, vi, w)
		}

		hnext := ws.Norm2(w)
		h[(j+1)*m+j] = hnext
		happy := hnext == 0
		if !happy {
			ws.Scale(1/hnext, w)
		}

		// Apply the accumulated Givens rotations to the new column,
		// then compute the rotation that annihilates h[j+1,j].
		for i := 0; i < j; i++ {
			hi, hi1 := h[i*m+j], h[(i+1)*m+j]
			h[i*m+j] = cs[i]*hi + sn[i]*hi1
			h[(i+1)*m+j] = -sn[i]*hi + cs[i]*hi1
		}
		c, s := givens(h[j*m+j], h[(j+1)*m+j])
		cs[j], sn[j] = c, s
		h[j*m+j] = c*h[j*m+j] + s*h[(j+1)*m+j]
		h[(j+1)*m+j] = 0
		g[j+1] = -s * g[j]
		g[j] *= c

		est := math.Abs(g[j+1])
		if math.IsNaN(est) || math.IsInf(est, 0) {
			return fmt.Errorf("gkrylov: non-finite residual estimate at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
		}
		run.Tick(est)
		if happy || est <= run.Threshold || run.Stopped() {
			j++
			break
		}
	}

	// Solve the j×j upper-triangular system R y = g and expand the
	// correction onto x.
	for i := j - 1; i >= 0; i-- {
		d := h[i*m+i]
		if d == 0 {
			return fmt.Errorf("gkrylov: singular projected system (R[%d,%d] = 0) at iteration %d: %w",
				i, i, res.Iterations, engine.ErrBreakdown)
		}
		s := g[i]
		for l := i + 1; l < j; l++ {
			s -= h[i*m+l] * y[l]
		}
		y[i] = s / d
	}
	for i := 0; i < j; i++ {
		ws.Axpy(y[i], k.basis(ws, i), k.x)
	}

	// True-residual refresh: restarting from the recurrence estimate
	// would compound rounding across cycles.
	run.ResidualInto(k.r, k.x)
	k.rnorm = ws.Norm2(k.r)
	if math.IsNaN(k.rnorm) || math.IsInf(k.rnorm, 0) {
		return fmt.Errorf("gkrylov: non-finite residual at iteration %d: %w", res.Iterations, engine.ErrBreakdown)
	}
	return nil
}

func (k *gmresKernel) Finish(run *engine.Run) {
	// The cycle exit already computed r = b - A x; publish its norm
	// without spending another matvec.
	run.Res.TrueResidualNorm = k.rnorm
	run.Res.ResidualNorm = k.rnorm
}

// givens returns the rotation (c, s) with c*a + s*b = r, -s*a + c*b = 0,
// in the numerically careful form that avoids overflow in a²+b².
func givens(a, b float64) (c, s float64) {
	switch {
	case b == 0:
		return 1, 0
	case a == 0:
		return 0, 1
	case math.Abs(b) > math.Abs(a):
		t := a / b
		s = 1 / math.Sqrt(1+t*t)
		return s * t, s
	default:
		t := b / a
		c = 1 / math.Sqrt(1+t*t)
		return c, c * t
	}
}
