// Package block implements block conjugate gradient methods — blockcg
// and blockpcg — on the engine kernel contract. A block method iterates
// s right-hand sides of one operator simultaneously (O'Leary 1980):
// every iteration performs ONE multi-vector SpMV row pass for all s
// columns and fuses the s×s inner products into a single block Gram
// reduction, the multi-RHS twin of the paper's s-step restructuring —
// many synchronization points collapse into one per iteration
// regardless of how many systems are in flight.
//
// The kernel deflates converged columns from the active block each
// iteration and survives rank-deficient block Gram matrices (duplicate
// or linearly dependent right-hand sides) by solving the small systems
// with a diagonally-pivoted Cholesky factorization and basic solutions:
// dependent directions receive zero coefficients instead of breaking
// the iteration.
//
// Like every engine kernel, all vectors come from the workspace arena
// and all small-block scratch is cached on the kernel keyed by block
// width, so warm repeated solves of the same shape allocate nothing.
package block

import (
	"fmt"
	"math"

	"vrcg/internal/engine"
	"vrcg/internal/vec"
	"vrcg/precond"
	"vrcg/sparse"
)

// Kernel is the block CG / block PCG iteration. The driver's Run.B is
// column 0 of the right-hand-side block; SetExtraRHS supplies columns
// 1..s-1 before the solve. With no extra columns the iteration
// degenerates to standard (P)CG on one vector.
type Kernel struct {
	label  string
	withM  bool // blockpcg: apply Config.Precond (identity when nil)
	extras []vec.Vector

	s  int          // block width of the current solve
	bs []vec.Vector // rhs columns (bs[0] aliases Run.B)

	// Column families; z aliases r for blockcg (M = I, no copy).
	x, r, p, q, z []vec.Vector
	// Active views, rebuilt from act each step.
	xa, ra, pa, qa, za []vec.Vector

	act  []int // indices of unconverged columns
	keep []int // positions within act retained after deflation

	bn, rn, truern []float64
	conv           []bool
	iters          []int

	// s×s block scratch, row-major.
	srz, srzNew, spq, lam, neg, beta, fac []float64
	perm                                  []int
	ysol                                  []float64

	m     precond.Preconditioner
	ident *precond.Identity
}

// NewCGKernel returns the blockcg iteration kernel.
func NewCGKernel() *Kernel { return &Kernel{label: "blockcg"} }

// NewPCGKernel returns the blockpcg iteration kernel.
func NewPCGKernel() *Kernel { return &Kernel{label: "blockpcg", withM: true} }

// Name implements engine.Kernel.
func (kn *Kernel) Name() string { return kn.label }

// SetExtraRHS supplies right-hand-side columns 1..s-1 for the next
// solve (column 0 is the driver's b). The slice is consumed by Init, so
// a later solve without a fresh SetExtraRHS runs single-RHS. Columns
// are read, never modified, and must stay valid through the solve.
func (kn *Kernel) SetExtraRHS(cols []vec.Vector) {
	kn.extras = cols
}

// Width returns the block width s of the last solve.
func (kn *Kernel) Width() int { return kn.s }

// ColumnX returns the solution column j of the last solve. Like
// Result.X it aliases workspace storage: valid only until the next
// solve on the same workspace.
func (kn *Kernel) ColumnX(j int) vec.Vector { return kn.x[j] }

// ColumnIterations returns the iteration at which column j converged
// (or the total iteration count if it did not).
func (kn *Kernel) ColumnIterations(j int) int { return kn.iters[j] }

// ColumnConverged reports whether column j met its own relative
// tolerance ||r_j|| <= tol*||b_j||.
func (kn *Kernel) ColumnConverged(j int) bool { return kn.conv[j] }

// ColumnResidual returns column j's final recursive residual norm.
func (kn *Kernel) ColumnResidual(j int) float64 { return kn.rn[j] }

// ColumnTrueResidual returns ||b_j - A x_j|| computed at exit.
func (kn *Kernel) ColumnTrueResidual(j int) float64 { return kn.truern[j] }

// size rebuilds the width-keyed scratch when the block width changes.
func (kn *Kernel) size(s int) {
	if kn.s == s {
		return
	}
	kn.s = s
	kn.bs = make([]vec.Vector, s)
	kn.x = make([]vec.Vector, s)
	kn.r = make([]vec.Vector, s)
	kn.p = make([]vec.Vector, s)
	kn.q = make([]vec.Vector, s)
	kn.z = make([]vec.Vector, s)
	kn.xa = make([]vec.Vector, 0, s)
	kn.ra = make([]vec.Vector, 0, s)
	kn.pa = make([]vec.Vector, 0, s)
	kn.qa = make([]vec.Vector, 0, s)
	kn.za = make([]vec.Vector, 0, s)
	kn.act = make([]int, 0, s)
	kn.keep = make([]int, 0, s)
	kn.bn = make([]float64, s)
	kn.rn = make([]float64, s)
	kn.truern = make([]float64, s)
	kn.conv = make([]bool, s)
	kn.iters = make([]int, s)
	kn.srz = make([]float64, s*s)
	kn.srzNew = make([]float64, s*s)
	kn.spq = make([]float64, s*s)
	kn.lam = make([]float64, s*s)
	kn.neg = make([]float64, s*s)
	kn.beta = make([]float64, s*s)
	kn.fac = make([]float64, s*s)
	kn.perm = make([]int, s)
	kn.ysol = make([]float64, s)
}

// views rebuilds the active-column views from act.
func (kn *Kernel) views() {
	kn.xa, kn.ra, kn.pa, kn.qa, kn.za = kn.xa[:0], kn.ra[:0], kn.pa[:0], kn.qa[:0], kn.za[:0]
	for _, j := range kn.act {
		kn.xa = append(kn.xa, kn.x[j])
		kn.ra = append(kn.ra, kn.r[j])
		kn.pa = append(kn.pa, kn.p[j])
		kn.qa = append(kn.qa, kn.q[j])
		kn.za = append(kn.za, kn.z[j])
	}
}

// scaledResidual maps the per-column relative criteria onto the
// driver's single absolute threshold Tol*||b_0||: the maximum of
// rn_j * ||b_0||/||b_j|| is <= Tol*||b_0|| exactly when every column
// meets its own Tol*||b_j||.
func (kn *Kernel) scaledResidual() float64 {
	max := 0.0
	for j := 0; j < kn.s; j++ {
		if v := kn.rn[j] * kn.bn[0] / kn.bn[j]; v > max || math.IsNaN(v) {
			max = v
		}
	}
	return max
}

// Init implements engine.Kernel: it binds the rhs block, forms the
// initial residuals with one multi-vector product, and seeds P = Z.
func (kn *Kernel) Init(run *engine.Run) (float64, error) {
	ws := run.Ws
	n := ws.Dim()

	extras := kn.extras
	kn.extras = nil // consumed: the next solve defaults back to s = 1
	for i, c := range extras {
		if len(c) != len(run.B) {
			return 0, fmt.Errorf("block: extra rhs %d has length %d, want %d: %w",
				i, len(c), len(run.B), sparse.ErrDim)
		}
	}
	s := 1 + len(extras)
	kn.size(s)
	kn.bs[0] = run.B
	copy(kn.bs[1:], extras)

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
	} else {
		kn.m = nil
	}

	// Arena layout: slot*s+j. Same (s, workspace) → same storage, so
	// warm solves allocate nothing.
	zSlots := 0
	if kn.withM {
		zSlots = 1
	}
	for j := 0; j < s; j++ {
		kn.x[j] = ws.Vec(0*s + j)
		kn.r[j] = ws.Vec(1*s + j)
		kn.p[j] = ws.Vec(2*s + j)
		kn.q[j] = ws.Vec(3*s + j)
		if zSlots > 0 {
			kn.z[j] = ws.Vec(4*s + j)
		} else {
			kn.z[j] = kn.r[j] // blockcg: z aliases r
		}
	}
	run.Res.X = kn.x[0]

	for j := 0; j < s; j++ {
		if run.Cfg.X0 != nil {
			vec.Copy(kn.x[j], run.Cfg.X0)
		} else {
			vec.Zero(kn.x[j])
		}
		kn.bn[j] = vec.Norm2(kn.bs[j])
		if kn.bn[j] == 0 {
			kn.bn[j] = 1
		}
		kn.conv[j] = false
		kn.iters[j] = 0
		kn.truern[j] = 0
	}

	// R = B - A X in one multi-vector pass.
	kn.act = kn.act[:0]
	for j := 0; j < s; j++ {
		kn.act = append(kn.act, j)
	}
	kn.views()
	ws.MatVecs(run.A, kn.ra, kn.xa)
	run.Res.Stats.MatVecs += s
	run.Res.Stats.Flops += int64(s) * run.MatVecFlops
	for j := 0; j < s; j++ {
		vec.Sub(kn.r[j], kn.bs[j], kn.r[j])
		kn.rn[j] = vec.Norm2(kn.r[j])
	}
	run.Res.Stats.InnerProducts += s
	run.Res.Stats.Flops += 2 * int64(s) * int64(n)

	if kn.withM {
		for j := 0; j < s; j++ {
			ws.ApplyPrecond(kn.m, kn.z[j], kn.r[j])
		}
		run.Res.Stats.PrecondSolves += s
	}
	for j := 0; j < s; j++ {
		vec.Copy(kn.p[j], kn.z[j])
	}

	// Deflate columns already at tolerance (zero rhs, lucky X0).
	kn.deflate(run, true)
	na := len(kn.act)
	if na > 0 {
		ws.DotBlock(kn.za, kn.ra, kn.srz[:na*na])
		run.Res.Stats.InnerProducts += na * na
		run.Res.Stats.Flops += 2 * int64(na*na) * int64(n)
	}
	return kn.scaledResidual(), nil
}

// Residual implements engine.Kernel.
func (kn *Kernel) Residual(*engine.Run) float64 { return kn.scaledResidual() }

// deflate retires columns that met their own tolerance, recording their
// iteration counts, and compacts the saved Z'R Gram onto the surviving
// active set when asked (the Gram rows/columns are indexed by active
// position, so removal must compress it).
func (kn *Kernel) deflate(run *engine.Run, initOnly bool) {
	na := len(kn.act)
	kn.keep = kn.keep[:0]
	for pos, j := range kn.act {
		if kn.rn[j] <= run.Cfg.Tol*kn.bn[j] {
			kn.conv[j] = true
			kn.iters[j] = run.Res.Iterations
			continue
		}
		kn.keep = append(kn.keep, pos)
	}
	if len(kn.keep) == na {
		return
	}
	if !initOnly {
		// Compact srzNew (na×na over the old active set) into srz over
		// the survivors.
		nk := len(kn.keep)
		for a, pi := range kn.keep {
			for b, pj := range kn.keep {
				kn.srz[a*nk+b] = kn.srzNew[pi*na+pj]
			}
		}
	}
	newAct := kn.act[:0]
	for _, pos := range kn.keep {
		newAct = append(newAct, kn.act[pos])
	}
	kn.act = newAct
	kn.views()
}

// Step implements engine.Kernel: one block iteration advancing every
// active column — one multi-vector SpMV, two block Gram reductions, and
// three block axpy sweeps, with one Tick.
func (kn *Kernel) Step(run *engine.Run) error {
	ws, res := run.Ws, run.Res
	n := int64(ws.Dim())
	na := len(kn.act)
	if na == 0 {
		run.Stop()
		return nil
	}

	// Q = A P in one row pass over all active columns.
	ws.MatVecs(run.A, kn.qa, kn.pa)
	res.Stats.MatVecs += na
	res.Stats.Flops += int64(na) * run.MatVecFlops

	// Spq = PᵀQ: the s×s curvature Gram, one fused reduction.
	spq := kn.spq[:na*na]
	ws.DotBlock(kn.pa, kn.qa, spq)
	res.Stats.InnerProducts += na * na
	res.Stats.Flops += 2 * int64(na*na) * n

	rank, err := kn.factor(spq, na)
	if err != nil {
		return fmt.Errorf("block: block curvature not positive at iteration %d: %w",
			res.Iterations, err)
	}
	if rank == 0 {
		return fmt.Errorf("block: block Gram wholly rank-deficient at iteration %d: %w",
			res.Iterations, engine.ErrBreakdown)
	}
	// Λ = Spq⁻¹ (ZᵀR); rank-deficient directions get zero coefficients
	// (basic solution), which is exact for consistent (duplicate-RHS)
	// systems.
	lam := kn.lam[:na*na]
	kn.solveBasic(lam, kn.srz[:na*na], na, rank)

	// X += P Λ, R -= Q Λ.
	ws.AxpyBlock(lam, kn.pa, kn.xa)
	neg := kn.neg[:na*na]
	for i, v := range lam {
		neg[i] = -v
	}
	ws.AxpyBlock(neg, kn.qa, kn.ra)
	res.Stats.VectorUpdates += 2 * na
	res.Stats.Flops += 4 * int64(na*na) * n

	for _, j := range kn.act {
		kn.rn[j] = vec.Norm2(kn.r[j])
		if math.IsNaN(kn.rn[j]) || math.IsInf(kn.rn[j], 0) {
			return fmt.Errorf("block: non-finite residual in column %d at iteration %d: %w",
				j, res.Iterations, engine.ErrBreakdown)
		}
	}
	res.Stats.InnerProducts += na
	res.Stats.Flops += 2 * int64(na) * n

	if kn.withM {
		for _, j := range kn.act {
			ws.ApplyPrecond(kn.m, kn.z[j], kn.r[j])
		}
		res.Stats.PrecondSolves += na
	}

	// Srz' = ZᵀR and β = Srz⁻¹ Srz' (Hestenes–Stiefel block form).
	srzNew := kn.srzNew[:na*na]
	ws.DotBlock(kn.za, kn.ra, srzNew)
	res.Stats.InnerProducts += na * na
	res.Stats.Flops += 2 * int64(na*na) * n

	rank, err = kn.factor(kn.srz[:na*na], na)
	if err != nil || rank == 0 {
		if err == nil {
			err = engine.ErrBreakdown
		}
		return fmt.Errorf("block: (Z,R) Gram degenerate at iteration %d: %w", res.Iterations, err)
	}
	beta := kn.beta[:na*na]
	kn.solveBasic(beta, srzNew, na, rank)

	// P' = Z + P β, built in Q (dead until the next SpMV) to avoid
	// aliasing the P columns still being read, then swapped in.
	for _, j := range kn.act {
		vec.Copy(kn.q[j], kn.z[j])
	}
	ws.AxpyBlock(beta, kn.pa, kn.qa)
	for _, j := range kn.act {
		kn.p[j], kn.q[j] = kn.q[j], kn.p[j]
	}
	kn.views()
	res.Stats.VectorUpdates += na
	res.Stats.Flops += 2 * int64(na*na) * n

	copy(kn.srz[:na*na], srzNew)
	run.Tick(kn.scaledResidual())
	kn.deflate(run, false)
	return nil
}

// Finish implements engine.Kernel: per-column true residuals via one
// multi-vector product, and final bookkeeping for columns that ran to
// the iteration cap.
func (kn *Kernel) Finish(run *engine.Run) {
	ws, res := run.Ws, run.Res
	s := kn.s
	for j := 0; j < s; j++ {
		if !kn.conv[j] {
			kn.iters[j] = res.Iterations
		}
	}
	// Q is dead after the loop: reuse all s columns as scratch.
	all := kn.qa[:0]
	xall := kn.xa[:0]
	for j := 0; j < s; j++ {
		all = append(all, kn.q[j])
		xall = append(xall, kn.x[j])
	}
	ws.MatVecs(run.A, all, xall)
	res.Stats.MatVecs += s
	res.Stats.Flops += int64(s) * run.MatVecFlops
	max := 0.0
	for j := 0; j < s; j++ {
		vec.Sub(kn.q[j], kn.bs[j], kn.q[j])
		kn.truern[j] = vec.Norm2(kn.q[j])
		if v := kn.truern[j] * kn.bn[0] / kn.bn[j]; v > max {
			max = v
		}
	}
	res.TrueResidualNorm = max
}

// factor computes a diagonally-pivoted Cholesky factorization of the
// symmetric na×na matrix S into kn.fac/kn.perm, returning its numerical
// rank. A negative leading pivot — the most positive diagonal entry is
// negative — means the block curvature is negative: engine.ErrIndefinite.
func (kn *Kernel) factor(S []float64, na int) (int, error) {
	fac := kn.fac[:na*na]
	copy(fac, S)
	perm := kn.perm[:na]
	for i := range perm {
		perm[i] = i
	}
	maxDiag := 0.0
	for i := 0; i < na; i++ {
		if d := fac[i*na+i]; d > maxDiag {
			maxDiag = d
		}
	}
	tol := float64(na) * 1e-14 * maxDiag
	for k := 0; k < na; k++ {
		pm, pd := k, fac[k*na+k]
		for i := k + 1; i < na; i++ {
			if d := fac[i*na+i]; d > pd {
				pm, pd = i, d
			}
		}
		if k == 0 && pd < 0 {
			return 0, engine.ErrIndefinite
		}
		if pd <= tol || pd <= 0 {
			return k, nil
		}
		if pm != k {
			for c := 0; c < na; c++ {
				fac[k*na+c], fac[pm*na+c] = fac[pm*na+c], fac[k*na+c]
			}
			for r := 0; r < na; r++ {
				fac[r*na+k], fac[r*na+pm] = fac[r*na+pm], fac[r*na+k]
			}
			perm[k], perm[pm] = perm[pm], perm[k]
		}
		lkk := math.Sqrt(pd)
		fac[k*na+k] = lkk
		for i := k + 1; i < na; i++ {
			fac[i*na+k] /= lkk
		}
		// Full symmetric trailing update keeps later pivot swaps a plain
		// row+column exchange.
		for jj := k + 1; jj < na; jj++ {
			ljk := fac[jj*na+k]
			if ljk == 0 {
				continue
			}
			for i := k + 1; i < na; i++ {
				fac[i*na+jj] -= fac[i*na+k] * ljk
			}
		}
	}
	return na, nil
}

// solveBasic solves S Λ = C column-by-column using the factorization
// left by factor, zeroing the coefficients of non-pivot (numerically
// dependent) directions — the basic solution, exact when C's columns
// lie in the range of S.
func (kn *Kernel) solveBasic(dst, C []float64, na, rank int) {
	fac, perm, y := kn.fac, kn.perm[:na], kn.ysol[:na]
	for j := 0; j < na; j++ {
		for i := 0; i < rank; i++ {
			s := C[perm[i]*na+j]
			for k := 0; k < i; k++ {
				s -= fac[i*na+k] * y[k]
			}
			y[i] = s / fac[i*na+i]
		}
		for i := rank - 1; i >= 0; i-- {
			s := y[i]
			for k := i + 1; k < rank; k++ {
				s -= fac[k*na+i] * y[k]
			}
			y[i] = s / fac[i*na+i]
		}
		for i := 0; i < rank; i++ {
			dst[perm[i]*na+j] = y[i]
		}
		for i := rank; i < na; i++ {
			dst[perm[i]*na+j] = 0
		}
	}
}
