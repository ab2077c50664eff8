package sstep

import (
	"fmt"
	"math"

	"vrcg/internal/core"
	"vrcg/internal/engine"
	"vrcg/internal/vec"
)

// sstepKernel is Chronopoulos–Gear s-step CG as an engine kernel: each
// Step executes one block — build the monomial block basis
// {p, Ap, ..., A^{s+1}p, r, Ar, ..., A^{s}r}, compute all Gram inner
// products of the block in one batched reduction, run s CG steps whose
// scalars are contractions of that Gram data (core's coefficient algebra
// — the paper's equation (*) — restricted to one block), and apply the
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

	// The block's Gram sequences Mu = (r, A^i r), Nu = (r, A^i p),
	// Omega = (p, A^i p) are consecutive stretches of gram, taken as the
	// one reduction gram[i] = <gx[i], gy[i]>. The step scalars contract
	// coefficient pairs over the block base against them.
	base           core.BaseGram
	gram           []float64
	gx, gy         []vec.Vector
	cr, cp, cx, ct core.Coeffs
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

func (kn *sstepKernel) Init(run *engine.Run) (float64, error) {
	if run.Cfg.S < 1 {
		return 0, fmt.Errorf("sstep: block size S = %d must be >= 1: %w", run.Cfg.S, engine.ErrBadOption)
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
		kn.base = core.BaseGram{Mu: kn.gram[:2*s+1], Nu: kn.gram[2*s+1 : 4*s+3], Omega: kn.gram[4*s+3:]}
		kn.gx = make([]vec.Vector, 0, len(kn.gram))
		kn.gy = make([]vec.Vector, 0, len(kn.gram))
		kn.cr = core.NewCoeffs(s + 2)
		kn.cp = core.NewCoeffs(s + 2)
		kn.cx = core.NewCoeffs(s + 2)
		kn.ct = core.NewCoeffs(s + 2)
		kn.stepRRs = make([]float64, 0, s)
		kn.comb = make([]float64, 2*s+3)
		kn.s = s
	}
	kn.fam = append(append(kn.fam[:0], kn.rPow...), kn.pPow...)
	kn.gx, kn.gy = kn.gx[:0], kn.gy[:0]
	for i := range kn.base.Mu {
		kn.gx, kn.gy = append(kn.gx, kn.rPow[i/2]), append(kn.gy, kn.rPow[i-i/2])
	}
	for i := range kn.base.Nu {
		x := min(i/2, s)
		kn.gx, kn.gy = append(kn.gx, kn.rPow[x]), append(kn.gy, kn.pPow[i-x])
	}
	for i := range kn.base.Omega {
		kn.gx, kn.gy = append(kn.gx, kn.pPow[i/2]), append(kn.gy, kn.pPow[i-i/2])
	}

	run.InitialIterate(kn.x, kn.r)
	vec.Copy(kn.p, kn.r)

	kn.rr = ws.Dot(kn.r, kn.r)
	return kn.resNorm(), nil
}

func (kn *sstepKernel) Residual(*engine.Run) float64 { return kn.resNorm() }

// applyCombo materializes a coefficient combination over the power
// families into dst — the s-step economy: no per-step matvecs, just one
// combination sweep, its terms in rho then pi order.
func (kn *sstepKernel) applyCombo(run *engine.Run, dst vec.Vector, c core.CoeffPair) {
	clear(kn.comb)
	copy(kn.comb, c.Rho)
	copy(kn.comb[len(kn.rPow):], c.Pi)
	run.Ws.Combine(dst, nil, kn.comb, kn.fam)
}

// Step executes one s-step block.
func (kn *sstepKernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res
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

	// One batched reduction: Gram sequences to index 2s+2.
	ws.Dots(kn.gram, kn.gx, kn.gy)

	// s CG steps by coefficient recurrences over (rho, pi) relative to
	// the block base, contracted against the Gram data. cr/cp start as
	// the base vectors themselves; cx accumulates sum_j lambda_j *
	// (coefficients of p_j) — the whole block's solution update as one
	// linear combination.
	kn.cr.SetR()
	kn.cp.SetP()
	kn.cx.SetZero()
	kn.stepRRs = kn.stepRRs[:0]

	blockRR := kn.rr
	steps := 0
	var bad float64 // the scalar that ended the block early
	for j := 0; j < s; j++ {
		pap := kn.base.Contract(kn.cp.CoeffPair, kn.cp.CoeffPair, 1)
		if pap <= 0 || math.IsNaN(pap) {
			bad = pap
			break
		}
		lambda := blockRR / pap
		kn.cx.Axpy(lambda, kn.cp.CoeffPair)
		// crNew = cr - lambda * A·cp, staged in the scratch pair so a
		// breakdown leaves cr (and the applied update below) intact.
		kn.ct.StepR(kn.cr.CoeffPair, kn.cp.CoeffPair, lambda)
		rrNew := kn.base.Contract(kn.ct.CoeffPair, kn.ct.CoeffPair, 0)
		if rrNew < 0 || math.IsNaN(rrNew) {
			bad = rrNew
			break
		}
		alpha := rrNew / blockRR
		kn.cr, kn.ct = kn.ct, kn.cr
		kn.cp.StepP(kn.cr.CoeffPair, kn.cp.CoeffPair, alpha)
		blockRR = rrNew
		kn.stepRRs = append(kn.stepRRs, rrNew)
		steps++
		if math.Sqrt(math.Max(rrNew, 0)) <= run.Threshold || res.Iterations+steps >= run.Cfg.MaxIter {
			break
		}
	}
	if steps == 0 && (math.IsNaN(bad) || math.IsInf(bad, 0)) {
		return fmt.Errorf("sstep: block scalar %g at iteration %d is not finite: %w", bad, res.Iterations, engine.ErrBreakdown)
	}
	if steps == 0 {
		return fmt.Errorf("sstep: block scalar breakdown at iteration %d (block size %d too large for this conditioning): %w",
			res.Iterations, s, engine.ErrBreakdown)
	}

	// Apply the block as linear combinations of the power families. x
	// takes its update as a sum of its own, x + (0 + c0 p0 + ...): as
	// the first term of one combination it would round differently.
	kn.applyCombo(run, kn.upd, kn.cx.CoeffPair)
	run.Ws.Axpy(1, kn.upd, kn.x)
	kn.applyCombo(run, kn.r, kn.cr.CoeffPair)
	kn.applyCombo(run, kn.p, kn.cp.CoeffPair)

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
	return nil
}

func (kn *sstepKernel) Finish(run *engine.Run) { run.TrueResidual(kn.upd, kn.x) }
