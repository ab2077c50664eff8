package sstep

import (
	"fmt"
	"math"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
)

// coeffVec represents a vector symbolically as a polynomial combination
// of the block base (rho over A^i r, pi over A^i p). The views rho/pi
// are prefixes of the fixed backing arrays rhoB/piB (capacity s+2 — the
// degrees grow by at most one per step within a block), so the
// coefficient algebra runs without allocation.
type coeffVec struct {
	rho, pi   []float64
	rhoB, piB []float64
}

// axpyCoeffInto computes x + sc*(0^shift ++ y) into dst's backing array
// and returns the re-sliced result, reproducing the historical axpyC /
// shiftUp algebra exactly (including the empty-operand length rules).
// dst may share backing with x, or with y when shift is zero: every
// position i reads only x[i] and y[i-shift] before writing, and the
// aliased call sites are index-aligned.
func axpyCoeffInto(dst, x, y []float64, sc float64, shift int) []float64 {
	if len(y) == 0 {
		shift = 0
	}
	ln := len(x)
	if len(y) > 0 && len(y)+shift > ln {
		ln = len(y) + shift
	}
	out := dst[:ln]
	for i := 0; i < ln; i++ {
		var xi, yi float64
		if i < len(x) {
			xi = x[i]
		}
		if i >= shift && i-shift < len(y) {
			yi = y[i-shift]
		}
		out[i] = xi + sc*yi
	}
	return out
}

// sstepKernel is Chronopoulos–Gear s-step CG as an engine kernel: each
// Step executes one block — build the monomial block basis
// {p, Ap, ..., A^{s+1}p, r, Ar, ..., A^{s}r}, compute all Gram inner
// products of the block in one batched reduction, run s CG steps whose
// scalars are contractions of that Gram data (the identical algebra as
// the paper's equation (*), restricted to one block), and apply the
// accumulated coefficient updates to the vectors. Numerically the
// monomial basis limits practical block sizes to s <~ 5, exactly the
// historical experience with the method.
//
// All block state — power families, Gram sequences, coefficient
// buffers — is cached on the kernel keyed by the block size, so a warm
// repeated solve allocates nothing.
type sstepKernel struct {
	s int

	x, r, p, upd vec.Vector
	rPow, pPow   []vec.Vector

	// The block's Gram sequences mu = (A^i r, A^j r), nu = (A^i r,
	// A^j p), om = (A^i p, A^j p) are consecutive stretches of gram,
	// taken as the one reduction gram[i] = <gx[i], gy[i]>.
	mu, nu, om     []float64
	gram           []float64
	gx, gy         []vec.Vector
	cr, cp, cx, ct coeffVec
	stepRRs        []float64
	// fam is rPow followed by pPow and comb a coefficient per member: what
	// applyCombo hands the Workspace.
	fam  []vec.Vector
	comb []float64

	rr float64
}

// NewKernel returns the sstep iteration kernel.
func NewKernel() engine.Kernel { return &sstepKernel{} }

func (kn *sstepKernel) Name() string { return "sstep" }

func (kn *sstepKernel) resNorm() float64 { return math.Sqrt(math.Max(kn.rr, 0)) }

func newCoeffVec(cap int) coeffVec {
	return coeffVec{rhoB: make([]float64, cap), piB: make([]float64, cap)}
}

func (kn *sstepKernel) Init(run *engine.Run) (float64, error) {
	if run.Cfg.S < 1 {
		return 0, fmt.Errorf("sstep: block size S = %d must be >= 1: %w", run.Cfg.S, ErrBadOption)
	}
	s := run.Cfg.S
	ws := run.Ws
	kn.x, kn.r, kn.p, kn.upd = ws.Vec(0), ws.Vec(1), ws.Vec(2), ws.Vec(3)

	// Power families: rPow[i] = A^i r (i = 0..s), pPow[i] = A^i p
	// (i = 0..s+1), as views of arena vectors rebuilt each solve.
	kn.rPow = kn.rPow[:0]
	for i := 0; i <= s; i++ {
		kn.rPow = append(kn.rPow, ws.Vec(4+i))
	}
	kn.pPow = kn.pPow[:0]
	for i := 0; i <= s+1; i++ {
		kn.pPow = append(kn.pPow, ws.Vec(5+s+i))
	}
	if kn.s != s {
		kn.gram = make([]float64, 6*s+6)
		kn.mu, kn.nu, kn.om = kn.gram[:2*s+1], kn.gram[2*s+1:4*s+3], kn.gram[4*s+3:]
		kn.gx = make([]vec.Vector, 0, len(kn.gram))
		kn.gy = make([]vec.Vector, 0, len(kn.gram))
		kn.cr = newCoeffVec(s + 2)
		kn.cp = newCoeffVec(s + 2)
		kn.cx = newCoeffVec(s + 2)
		kn.ct = newCoeffVec(s + 2)
		kn.stepRRs = make([]float64, 0, s)
		kn.comb = make([]float64, 2*s+3)
		kn.s = s
	}
	kn.fam = append(append(kn.fam[:0], kn.rPow...), kn.pPow...)
	kn.gx, kn.gy = kn.gx[:0], kn.gy[:0]
	for i := range kn.mu {
		kn.gx, kn.gy = append(kn.gx, kn.rPow[i/2]), append(kn.gy, kn.rPow[i-i/2])
	}
	for i := range kn.nu {
		x := min(i/2, s)
		kn.gx, kn.gy = append(kn.gx, kn.rPow[x]), append(kn.gy, kn.pPow[i-x])
	}
	for i := range kn.om {
		kn.gx, kn.gy = append(kn.gx, kn.pPow[i/2]), append(kn.gy, kn.pPow[i-i/2])
	}

	run.InitialIterate(kn.x, kn.r)
	vec.Copy(kn.p, kn.r)

	kn.rr = ws.Dot(kn.r, kn.r)
	run.Res.Stats.InnerProducts++
	run.Res.Stats.Flops += 2 * int64(ws.Dim())
	return kn.resNorm(), nil
}

func (kn *sstepKernel) Residual(*engine.Run) float64 { return kn.resNorm() }

// contract evaluates (x, A^shift y) over the block Gram sequences using
// symmetry — precisely the paper's equation (*) restricted to the block
// base.
func (kn *sstepKernel) contract(x, y coeffVec, shift int) float64 {
	var t float64
	for i, xv := range x.rho {
		if xv == 0 {
			continue
		}
		for j, yv := range y.rho {
			t += xv * yv * kn.mu[i+j+shift]
		}
		for j, yv := range y.pi {
			t += xv * yv * kn.nu[i+j+shift]
		}
	}
	for i, xv := range x.pi {
		if xv == 0 {
			continue
		}
		for j, yv := range y.rho {
			t += xv * yv * kn.nu[i+j+shift]
		}
		for j, yv := range y.pi {
			t += xv * yv * kn.om[i+j+shift]
		}
	}
	return t
}

// applyCombo materializes a coefficient combination over the power
// families into dst — the s-step economy: no per-step matvecs, just one
// combination sweep, its terms in rho then pi order.
func (kn *sstepKernel) applyCombo(run *engine.Run, dst vec.Vector, c coeffVec) {
	clear(kn.comb)
	copy(kn.comb, c.rho)
	copy(kn.comb[len(kn.rPow):], c.pi)
	run.Ws.Combine(dst, nil, kn.comb, kn.fam)
	run.Res.Stats.VectorUpdates += len(c.rho) + len(c.pi)
	run.Res.Stats.Flops += int64(len(c.rho)+len(c.pi)) * 2 * int64(run.Ws.Dim())
}

// Step executes one s-step block.
func (kn *sstepKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res
	n := int64(ws.Dim())
	s := kn.s

	// Build block Krylov powers: rPow[0..s], pPow[0..s+1].
	vec.Copy(kn.rPow[0], kn.r)
	for i := 1; i <= s; i++ {
		ws.MatVec(run.A, kn.rPow[i], kn.rPow[i-1])
	}
	vec.Copy(kn.pPow[0], kn.p)
	for i := 1; i <= s+1; i++ {
		ws.MatVec(run.A, kn.pPow[i], kn.pPow[i-1])
	}
	res.Stats.MatVecs += 2*s + 1
	res.Stats.Flops += int64(2*s+1) * run.MatVecFlops

	// One batched reduction: Gram sequences to index 2s+2.
	ws.Dots(kn.gram, kn.gx, kn.gy)
	res.Stats.InnerProducts += len(kn.gram)
	res.Stats.Flops += int64(len(kn.gram)) * 2 * n

	// s CG steps by coefficient recurrences over (rho, pi) relative to
	// the block base, contracted against the Gram data. cr/cp start as
	// the base vectors themselves; cx accumulates sum_j lambda_j *
	// (coefficients of p_j) — the whole block's solution update as one
	// linear combination.
	kn.cr.rho = kn.cr.rhoB[:1]
	kn.cr.rho[0] = 1
	kn.cr.pi = kn.cr.piB[:0]
	kn.cp.rho = kn.cp.rhoB[:0]
	kn.cp.pi = kn.cp.piB[:1]
	kn.cp.pi[0] = 1
	kn.cx.rho = kn.cx.rhoB[:0]
	kn.cx.pi = kn.cx.piB[:0]
	kn.stepRRs = kn.stepRRs[:0]

	blockRR := kn.rr
	steps := 0
	for j := 0; j < s; j++ {
		pap := kn.contract(kn.cp, kn.cp, 1)
		if pap <= 0 || math.IsNaN(pap) {
			break
		}
		lambda := blockRR / pap
		kn.cx.rho = axpyCoeffInto(kn.cx.rhoB, kn.cx.rho, kn.cp.rho, lambda, 0)
		kn.cx.pi = axpyCoeffInto(kn.cx.piB, kn.cx.pi, kn.cp.pi, lambda, 0)
		// crNew = cr - lambda * A·cp, staged in the scratch pair so a
		// breakdown leaves cr (and the applied update below) intact.
		kn.ct.rho = axpyCoeffInto(kn.ct.rhoB, kn.cr.rho, kn.cp.rho, -lambda, 1)
		kn.ct.pi = axpyCoeffInto(kn.ct.piB, kn.cr.pi, kn.cp.pi, -lambda, 1)
		rrNew := kn.contract(kn.ct, kn.ct, 0)
		if rrNew < 0 || math.IsNaN(rrNew) {
			break
		}
		alpha := rrNew / blockRR
		kn.cr, kn.ct = kn.ct, kn.cr
		kn.cp.rho = axpyCoeffInto(kn.cp.rhoB, kn.cr.rho, kn.cp.rho, alpha, 0)
		kn.cp.pi = axpyCoeffInto(kn.cp.piB, kn.cr.pi, kn.cp.pi, alpha, 0)
		blockRR = rrNew
		kn.stepRRs = append(kn.stepRRs, rrNew)
		steps++
		if math.Sqrt(math.Max(rrNew, 0)) <= run.Threshold || res.Iterations+steps >= run.Cfg.MaxIter {
			break
		}
	}
	if steps == 0 {
		return fmt.Errorf("sstep: block scalar breakdown at iteration %d (block size %d too large for this conditioning): %w",
			res.Iterations, s, ErrBreakdown)
	}

	// Apply the block as linear combinations of the power families. x
	// takes its update as a sum of its own, x + (0 + c0 p0 + ...): as
	// the first term of one combination it would round differently.
	kn.applyCombo(run, kn.upd, kn.cx)
	run.Ws.Axpy(1, kn.upd, kn.x)
	kn.applyCombo(run, kn.r, kn.cr)
	kn.applyCombo(run, kn.p, kn.cp)

	res.Blocks++
	for _, v := range kn.stepRRs {
		kn.rr = v
		run.Tick(math.Sqrt(math.Max(v, 0)))
	}
	// Direct residual resync once per block bounds the recurrence drift
	// (the block-boundary stabilization the literature uses). When the
	// block basis went numerically rank-deficient early, the next block
	// simply restarts from the repaired r, p.
	kn.rr = ws.Dot(kn.r, kn.r)
	res.Stats.InnerProducts++
	res.Stats.Flops += 2 * n
	return nil
}

func (kn *sstepKernel) Finish(run *engine.Run) { run.TrueResidual(kn.upd, kn.x) }
