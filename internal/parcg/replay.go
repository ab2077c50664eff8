package parcg

import (
	"vrcg/internal/collective"
	"vrcg/internal/engine"
	"vrcg/internal/machine"
	"vrcg/sparse"
)

// The paper's cost schedules on the simulated machine. The
// real-parallel kernels (kernels.go) do the numerics; when a solve asks
// for the simulated Clocks/Machine trajectory (WithMachineConfig), the
// adapter charges the method's schedule — halo exchanges, local sweeps,
// blocking and non-blocking collectives — for the iteration count the
// real solve performed. Every machine charge is data-independent (only
// time is simulated), so the schedule runs on zero vectors and needs
// nothing of the solve but its shape: Iterations, Converged, K.
// TestReplayGolden pins the resulting clocks and message totals.
//
// The schedules are the clean trajectories: drift fallbacks and
// emergency re-anchors (data-dependent recovery paths) are not charged.

// Replay charges the machine-model cost schedule of the named parcg
// method for the observed result: iters iterations on matrix a over
// procs processors, with res.Converged selecting the early-exit shape.
// It fills res.Clocks and res.Machine in place.
func Replay(cfg machine.Config, a *sparse.CSR, method string, blocking bool, res *engine.Result) {
	cfg.P = maxProcs(cfg.P, a.Dim())
	m := machine.New(cfg)
	dm := NewDistMatrix(a, cfg.P)
	res.Clocks = res.Clocks[:0]
	switch method {
	case "parcg-cg":
		replayCG(m, dm, res)
	case "parcg-pipe":
		replayPipe(m, dm, res)
	default:
		replayVRCG(m, dm, blocking, res)
	}
	res.Machine = m.Stats()
}

func maxProcs(p, n int) int {
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	return p
}

// scalarAll charges a replicated scalar operation on every processor
// (each processor computes the step scalars redundantly, the standard
// practice after an allreduce).
func scalarAll(m *machine.Machine, flops int) {
	for i := 0; i < m.P(); i++ {
		m.Compute(i, flops)
	}
}

// replayCG is standard Hestenes–Stiefel CG (paper §2): per iteration
// one distributed matvec (halo exchange + local sweep) and two blocking
// allreduce fan-ins — the c*log(N) dependency the paper sets out to
// remove — plus the start-up (r,r).
func replayCG(m *machine.Machine, dm *DistMatrix, res *engine.Result) {
	n, p := dm.Dim(), dm.P()
	x, r, pv, ap := NewDist(n, p), NewDist(n, p), NewDist(n, p), NewDist(n, p)

	collective.AllreduceSum(m, LocalDotPartials(m, r, r))
	for it := 0; it < res.Iterations; it++ {
		dm.MulVec(m, ap, pv)
		collective.AllreduceSum(m, LocalDotPartials(m, pv, ap))
		scalarAll(m, 1)
		Axpy(m, 0, pv, x)
		Axpy(m, 0, ap, r)
		collective.AllreduceSum(m, LocalDotPartials(m, r, r))
		scalarAll(m, 1)
		Xpay(m, r, 0, pv)
		res.Clocks = append(res.Clocks, m.MaxClock())
	}
}

// replayPipe is Ghysels–Vanroose pipelined CG (2014), the production
// descendant of the paper's idea (PETSc KSPPIPECG): one matvec n = A w
// per iteration with the single fused (gamma, delta) = ((r,r), (w,r))
// non-blocking allreduce in flight behind it, then three direction and
// three iterate updates. The convergence test sits after the wait, so
// a converged solve charges one matvec+wait beyond the counted
// iterations.
func replayPipe(m *machine.Machine, dm *DistMatrix, res *engine.Result) {
	n, p := dm.Dim(), dm.P()
	x, r, w := NewDist(n, p), NewDist(n, p), NewDist(n, p)
	pv, s, q, nv := NewDist(n, p), NewDist(n, p), NewDist(n, p), NewDist(n, p)

	dm.MulVec(m, w, r)
	issue := func() *collective.Handle {
		gp := LocalDotPartials(m, r, r)
		dp := LocalDotPartials(m, w, r)
		contrib := make([][]float64, p)
		for i := 0; i < p; i++ {
			contrib[i] = []float64{gp[i], dp[i]}
		}
		return collective.IAllreduceVec(m, contrib)
	}
	h := issue()
	for it := 0; it < res.Iterations; it++ {
		dm.MulVec(m, nv, w)
		h.WaitAll(m)
		scalarAll(m, 4)
		Xpay(m, r, 0, pv)
		Xpay(m, w, 0, s)
		Xpay(m, nv, 0, q)
		Axpy(m, 0, pv, x)
		Axpy(m, 0, s, r)
		Axpy(m, 0, q, w)
		h = issue()
		res.Clocks = append(res.Clocks, m.MaxClock())
	}
	if res.Converged {
		dm.MulVec(m, nv, w)
		h.WaitAll(m)
	}
}

// replayVRCG is the paper's restructured CG in the anchored
// equation-(*) form: every k iterations the base inner products (the
// Gram sequences Mu, Nu, Omega of the residual/direction Krylov
// families, 3(4k+1) values) are issued as ONE non-blocking batched
// allreduce; during the following k iterations all step scalars are
// contractions of the previous anchor's (by then delivered) products
// with coefficient polynomials — replicated scalar work whose flop
// count follows the polynomial degrees, no global communication. One
// distributed matvec per iteration maintains the top family power
// (paper §5), and every regrowEvery(k) iterations the anchor first
// regrows the lower powers with 4k more — a pure function of k and the
// iteration index, so it is charged at the anchors that perform it.
// With k at least the reduction latency in iteration units no processor
// ever waits: the log(P) fan-in leaves the critical path.
//
// blocking waits for each anchor's reduction at issue instead — the
// timing semantics of s-step CG (Chronopoulos–Gear), which amortizes
// reductions across a block but does not hide them.
func replayVRCG(m *machine.Machine, dm *DistMatrix, blocking bool, res *engine.Result) {
	n, p := dm.Dim(), dm.P()
	k := res.K
	if k < 1 {
		k = 1
	}

	x := NewDist(n, p)
	R := make([]*Dist, 2*k+1)
	P := make([]*Dist, 2*k+2)
	for i := range R {
		R[i] = NewDist(n, p)
	}
	for i := range P {
		P[i] = NewDist(n, p)
	}
	mulScaled := func(dst, src *Dist) {
		dm.MulVec(m, dst, src)
		Scale(m, 1, dst)
	}

	// Start-up: the Gershgorin bound the system is scaled by (one pass
	// over local rows plus a max-allreduce), family construction,
	// anchor 0.
	m.ComputeAll(2 * dm.a.NNZ() / p)
	collective.AllreduceSum(m, make([]float64, p))
	Scale(m, 1, R[0])
	for i := 1; i <= 2*k; i++ {
		mulScaled(R[i], R[i-1])
	}
	mulScaled(P[2*k+1], P[2*k])

	issueBase := func() *collective.Handle {
		width := 3 * (4*k + 1)
		contrib := make([][]float64, p)
		for i := range contrib {
			contrib[i] = make([]float64, 0, width)
		}
		appendDots := func(xs, ys []*Dist, count int) {
			for s := 0; s < count; s++ {
				a := s / 2
				if a >= len(xs) {
					a = len(xs) - 1
				}
				partials := LocalDotPartials(m, xs[a], ys[s-a])
				for i := range contrib {
					contrib[i] = append(contrib[i], partials[i])
				}
			}
		}
		appendDots(R, R, 4*k+1)
		appendDots(R, P, 4*k+1)
		appendDots(P, P, 4*k+1)
		return collective.IAllreduceVec(m, contrib)
	}
	contractCost := func(q int) int { return 6 * (q + 1) * (q + 1) }

	h := issueBase()
	h.WaitAll(m)

	// Coefficient degrees of the active (ra, pa) and building (rb, pb)
	// tracks, advanced like core.StepCGR/StepCGP advance them.
	ra, pa, rb, pb := 0, 0, 0, 0
	promote := func(it int) {
		h.WaitAll(m)
		ra, pa = rb, pb
		if it%regrowEvery(k) == 0 {
			// The scheduled regrowth (lookKernel.regrow): 4k products,
			// halo exchanges included, ahead of the batch.
			for i := 1; i <= 2*k; i++ {
				mulScaled(R[i], R[i-1])
				mulScaled(P[i], P[i-1])
			}
		}
		h = issueBase()
		if blocking {
			h.WaitAll(m)
		}
		rb, pb = 0, 0
	}
	for it := 0; it < res.Iterations; it++ {
		if it > 0 && it%k == 0 {
			promote(it)
		}
		scalarAll(m, contractCost(pa)+1)
		Axpy(m, 0, P[0], x)
		for i := 0; i <= 2*k; i++ {
			Axpy(m, 0, P[i+1], R[i])
		}
		raNew := ra
		if pa+1 > raNew {
			raNew = pa + 1
		}
		scalarAll(m, contractCost(raNew))
		for i := 0; i <= 2*k; i++ {
			Xpay(m, R[i], 0, P[i])
		}
		mulScaled(P[2*k+1], P[2*k])
		ra = raNew
		if ra > pa {
			pa = ra
		}
		if pb+1 > rb {
			rb = pb + 1
		}
		if rb > pb {
			pb = rb
		}
		res.Clocks = append(res.Clocks, m.MaxClock())
	}
	// A convergence exit at an anchor boundary promotes before breaking.
	if res.Converged && res.Iterations > 0 && res.Iterations%k == 0 {
		promote(res.Iterations)
	}
	// Final direct (r,r) confirmation.
	collective.AllreduceSum(m, LocalDotPartials(m, R[0], R[0]))
}

// AutoK estimates the look-ahead parameter that just hides the base
// reduction behind the iteration pipeline on this machine/problem pair —
// the constructive version of the paper's "choose k = log N"
// prescription. It compares the batched-allreduce completion time
// against the per-iteration local work (halo exchange + matvec sweep +
// family updates) for candidate k and returns the smallest k whose
// block duration covers the reduction, clamped to [1, maxK]. Larger k
// costs numerically (monomial-basis drift grows with k), so smallest-
// sufficient is the right objective.
func AutoK(cfg machine.Config, dm *DistMatrix, maxK int) int {
	if maxK < 1 {
		maxK = 1
	}
	p := dm.P()
	localN := dm.Dim() / p
	if localN < 1 {
		localN = 1
	}
	haloMsgs := dm.HaloDegree()
	rounds := 0
	for v := 1; v < p; v <<= 1 {
		rounds++
	}
	for k := 1; k <= maxK; k++ {
		width := 3 * (4*k + 1)
		reduction := float64(rounds) * (cfg.Alpha + cfg.Beta*float64(width))
		perIter := float64(haloMsgs)*cfg.Alpha + // halo latency
			cfg.FlopTime*float64(2*dm.a.NNZ()/p) + // matvec sweep
			cfg.FlopTime*float64((4*k+2)*2*localN) // family updates
		if float64(k)*perIter >= reduction {
			return k
		}
	}
	return maxK
}
