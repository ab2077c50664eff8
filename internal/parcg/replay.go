package parcg

import (
	"vrcg/internal/engine"
	"vrcg/internal/machine"
	"vrcg/sparse"
)

// The paper's cost schedules on the simulated machine. The
// real-parallel kernels (kernels.go) do the numerics; when a solve asks
// for the simulated Clocks/Machine trajectory (WithMachineConfig), the
// adapter charges the method's schedule — halo exchanges, local sweeps,
// blocking and issued allreduces — for the iteration count the real
// solve performed. Every machine charge is data-independent (only time
// is simulated), so a schedule is charged from its shape alone: the
// partition, and of the solve only Iterations, Converged and K. Each
// vector operation is its own charge, in the schedule's order, so the
// clocks round exactly as a run over real vectors would.
// TestReplayGolden pins the resulting clocks and message totals,
// TestReplayBitsUnchangedFromParent every clock bit.
//
// The schedules are the clean trajectories: drift fallbacks and
// emergency re-anchors (data-dependent recovery paths) are not charged.

// Replay charges the machine-model cost schedule of the named parcg
// method for the observed result: iters iterations on matrix a over
// procs processors, with res.Converged selecting the early-exit shape.
// It fills res.Clocks and res.Machine in place.
func Replay(cfg machine.Config, a *sparse.CSR, method string, blocking bool, res *engine.Result) {
	cfg.P = min(max(cfg.P, 1), a.Dim())
	m := machine.New(cfg)
	pt := NewPartition(a, cfg.P)
	res.Clocks = res.Clocks[:0]
	switch method {
	case "parcg-cg":
		replayCG(m, pt, res)
	case "parcg-pipe":
		replayPipe(m, pt, res)
	default:
		replayVRCG(m, pt, blocking, res)
	}
	res.Machine = m.Stats()
}

// replayCG is standard Hestenes–Stiefel CG (paper §2): per iteration
// one distributed matvec (halo exchange + local sweep) and two blocking
// allreduce fan-ins — the c*log(N) dependency the paper sets out to
// remove — plus the start-up (r,r).
func replayCG(m *machine.Machine, pt *Partition, res *engine.Result) {
	dot := func() {
		pt.Sweep(m, 2)
		m.Allreduce(1)
	}
	dot() // (r,r)
	for it := 0; it < res.Iterations; it++ {
		pt.MulVec(m) // Ap
		dot()        // (p,Ap)
		m.ComputeAll(1)
		pt.Sweep(m, 2) // x += λp
		pt.Sweep(m, 2) // r -= λAp
		dot()          // (r,r)
		m.ComputeAll(1)
		pt.Sweep(m, 2) // p = r + αp
		res.Clocks = append(res.Clocks, m.MaxClock())
	}
}

// replayPipe is Ghysels–Vanroose pipelined CG (2014), the production
// descendant of the paper's idea (PETSc KSPPIPECG): one matvec n = A w
// per iteration with the single fused (gamma, delta) = ((r,r), (w,r))
// issued allreduce in flight behind it, then three direction and
// three iterate updates. The convergence test sits after the wait, so
// a converged solve charges one matvec+wait beyond the counted
// iterations.
func replayPipe(m *machine.Machine, pt *Partition, res *engine.Result) {
	var h machine.Handle
	issue := func() {
		pt.Sweep(m, 2) // (r,r)
		pt.Sweep(m, 2) // (w,r)
		m.IAllreduce(&h, 2)
	}
	pt.MulVec(m) // w = Ar
	issue()
	for it := 0; it < res.Iterations; it++ {
		pt.MulVec(m) // n = Aw
		m.Wait(&h)
		m.ComputeAll(4)
		for range 6 { // p, s, q; then x, r, w
			pt.Sweep(m, 2)
		}
		issue()
		res.Clocks = append(res.Clocks, m.MaxClock())
	}
	if res.Converged {
		pt.MulVec(m)
		m.Wait(&h)
	}
}

// replayVRCG is the paper's restructured CG in the anchored
// equation-(*) form: every k iterations the base inner products (the
// Gram sequences Mu, Nu, Omega of the residual/direction Krylov
// families, 3(4k+1) values) are issued as ONE batched allreduce; during
// the following k iterations all step scalars are contractions of the
// previous anchor's (by then delivered) products with coefficient
// polynomials — replicated scalar work whose flop count follows the
// polynomial degrees, no global communication. One distributed matvec
// per iteration maintains the top family power (paper §5), and every
// regrowEvery(k) iterations the anchor first regrows the lower powers
// with 4k more — a pure function of k and the iteration index, so it is
// charged at the anchors that perform it. With k at least the reduction
// latency in iteration units no processor ever waits: the log(P) fan-in
// leaves the critical path.
//
// blocking waits for each anchor's reduction at issue instead — the
// timing semantics of s-step CG (Chronopoulos–Gear), which amortizes
// reductions across a block but does not hide them.
func replayVRCG(m *machine.Machine, pt *Partition, blocking bool, res *engine.Result) {
	k := max(res.K, 1)
	mulScaled := func() {
		pt.MulVec(m)
		pt.Sweep(m, 1)
	}

	// Start-up: the Gershgorin bound the system is scaled by (one pass
	// over local rows plus a max-allreduce), family construction,
	// anchor 0.
	m.ComputeAll(2 * pt.total / pt.p)
	m.Allreduce(1)
	pt.Sweep(m, 1) // R[0] scaled
	for i := 1; i <= 2*k; i++ {
		mulScaled() // R[i] = A·R[i-1]
	}
	mulScaled() // P[2k+1] = A·P[2k]

	// The base products: (4k+1) partials of each of the R·R, R·P and
	// P·P Gram sequences, then one batched allreduce.
	var h machine.Handle
	issueBase := func() {
		for range 3 * (4*k + 1) {
			pt.Sweep(m, 2)
		}
		m.IAllreduce(&h, 3*(4*k+1))
	}
	contractCost := func(q int) int { return 6 * (q + 1) * (q + 1) }

	issueBase()
	m.Wait(&h)

	// Coefficient degrees of the active (ra, pa) and building (rb, pb)
	// tracks, advanced like core.StepCGR/StepCGP advance them.
	ra, pa, rb, pb := 0, 0, 0, 0
	promote := func(it int) {
		m.Wait(&h)
		ra, pa = rb, pb
		if it%regrowEvery(k) == 0 {
			// The scheduled regrowth (lookKernel.regrow): 4k products,
			// halo exchanges included, ahead of the batch.
			for range 4 * k {
				mulScaled()
			}
		}
		issueBase()
		if blocking {
			m.Wait(&h)
		}
		rb, pb = 0, 0
	}
	for it := 0; it < res.Iterations; it++ {
		if it > 0 && it%k == 0 {
			promote(it)
		}
		m.ComputeAll(contractCost(pa) + 1)
		for range 2*k + 2 { // x, then R[0..2k]
			pt.Sweep(m, 2)
		}
		raNew := max(ra, pa+1)
		m.ComputeAll(contractCost(raNew))
		for range 2*k + 1 { // P[0..2k]
			pt.Sweep(m, 2)
		}
		mulScaled() // P[2k+1] = A·P[2k]
		ra = raNew
		pa = max(pa, ra)
		rb = max(rb, pb+1)
		pb = max(pb, rb)
		res.Clocks = append(res.Clocks, m.MaxClock())
	}
	// A convergence exit at an anchor boundary promotes before breaking.
	if res.Converged && res.Iterations > 0 && res.Iterations%k == 0 {
		promote(res.Iterations)
	}
	// Final direct (r,r) confirmation.
	pt.Sweep(m, 2)
	m.Allreduce(1)
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
func AutoK(cfg machine.Config, pt *Partition, maxK int) int {
	maxK = max(maxK, 1)
	p := pt.p
	localN := max(pt.n/p, 1)
	haloMsgs := pt.HaloDegree()
	rounds := 0
	for v := 1; v < p; v <<= 1 {
		rounds++
	}
	for k := 1; k <= maxK; k++ {
		width := 3 * (4*k + 1)
		reduction := float64(rounds) * (cfg.Alpha + cfg.Beta*float64(width))
		perIter := float64(haloMsgs)*cfg.Alpha + // halo latency
			cfg.FlopTime*float64(2*pt.total/p) + // matvec sweep
			cfg.FlopTime*float64((4*k+2)*2*localN) // family updates
		if float64(k)*perIter >= reduction {
			return k
		}
	}
	return maxK
}
