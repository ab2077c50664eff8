package solve

import (
	"fmt"
	"strings"

	"vrcg/internal/core"
	"vrcg/internal/engine"
	"vrcg/internal/gkrylov"
	"vrcg/internal/krylov"
	"vrcg/internal/parcg"
	"vrcg/internal/pipecg"
	"vrcg/internal/sstep"
)

// Caps declares what operator shapes a method accepts, so validation
// layers (CLI symmetry gates, server per-method shape checks) key off
// the registry instead of hard-coding method lists. The zero value is
// the historical contract — square symmetric positive definite only —
// which is correct for every classic method.
type Caps struct {
	// Nonsymmetric: the method does not require a symmetric (or SPD)
	// operator (bicgstab, gmres, cgnr, lsqr).
	Nonsymmetric bool
	// Rectangular: the method accepts rows != cols operators and solves
	// the least-squares problem min ||b - A x|| (cgnr, lsqr). Implies
	// the operator must provide transpose products.
	Rectangular bool
	// Sharded: every reduction the method's kernel performs goes
	// through the engine workspace, so the kernel runs unchanged on one
	// row block of an operator whose inner products are sums over all
	// the blocks — the methods a cluster fleet accepts.
	Sharded bool
}

// method is one registry row: an engine kernel and the few flags that
// set its schedule apart.
type method struct {
	name, summary string
	caps          Caps
	newKernel     func() engine.Kernel
	// syncs estimates the blocking global-synchronization points of the
	// finished schedule (Result.Syncs) — the per-method quantity the
	// paper's comparison is about.
	syncs func(er *engine.Result) int
	// drift marks the methods that publish Result.Drift (vrcg, parcg).
	drift bool
	// phases marks the methods that publish Result.Phases (the
	// real-parallel parcg family); their workspace times its phases.
	phases bool
	// blocking marks a schedule that evaluates an issued reduction at
	// issue whatever the options say (pipecg, gropp; WithBlocking asks
	// the same of parcg and parcg-pipe per solve).
	blocking bool
	// post, when non-nil, runs after the result is filled — the parcg
	// family's machine-mode replay hook. A returned error stands in for
	// the kernel's when the kernel itself succeeded.
	post func(s *Solver, c *config, a Operator, res *Result) error
}

// The classic and general-operator iterations block on every inner
// product: each one is a completed global reduction on the machine
// model.
func innerProducts(er *engine.Result) int { return er.Stats.InnerProducts }

// bicgstab blocks on every inner product but the pair (t,s), (t,t), one
// reduction. After the start-up norm a full iteration takes six and the
// half step converging at s three, so (InnerProducts−1−3·Iterations)/3
// iterations are full.
func bicgstabSyncs(er *engine.Result) int {
	return er.Stats.InnerProducts - (er.Stats.InnerProducts-1-3*er.Iterations)/3
}

// The pipelined schedules wait on one in-flight reduction per
// iteration (pipecg, parcg-pipe), plus start-up.
func onePerIteration(er *engine.Result) int { return er.Iterations + 1 }

// gropp waits on two overlappable reductions per iteration, plus
// start-up, and parcg-cg and pcg on two blocking ones (pcg's (r,z) and
// (r,r) are one) — the c*log(N) dependency the paper sets out to remove.
func twoPerIteration(er *engine.Result) int { return 2*er.Iterations + 1 }

// methods is the registry: every method, sorted by name. Methods lists
// it in this order.
var methods = [...]method{
	{name: "bicgstab", summary: "BiCGStab for square nonsymmetric systems (van der Vorst), workspace-backed",
		caps: Caps{Nonsymmetric: true}, newKernel: gkrylov.NewBiCGStabKernel, syncs: bicgstabSyncs},
	{name: "blockcg", summary: "a second name for cg, kept for wire compatibility, workspace-backed",
		newKernel: krylov.NewCGKernel, syncs: innerProducts},
	{name: "blockpcg", summary: "a second name for pcg, kept for wire compatibility, workspace-backed",
		newKernel: krylov.NewPCGKernel, syncs: twoPerIteration},
	{name: "cg", summary: "standard Hestenes-Stiefel CG (paper §2), workspace-backed",
		caps: Caps{Sharded: true}, newKernel: krylov.NewCGKernel, syncs: innerProducts},
	{name: "cgfused", summary: "a second name for cg, kept for wire compatibility, workspace-backed",
		caps: Caps{Sharded: true}, newKernel: krylov.NewCGKernel, syncs: innerProducts},
	{name: "cgnr", summary: "CG on the normal equations: least-squares min ||b-Ax|| over rectangular operators, workspace-backed",
		caps: Caps{Nonsymmetric: true, Rectangular: true}, newKernel: gkrylov.NewCGNRKernel, syncs: innerProducts},
	{name: "cr", summary: "conjugate residuals (minimizes ||b - A x||), workspace-backed",
		newKernel: krylov.NewCRKernel, syncs: innerProducts},
	{name: "gmres", summary: "restarted GMRES(m) for square nonsymmetric systems (WithRestart m), workspace-backed",
		caps: Caps{Nonsymmetric: true}, newKernel: gkrylov.NewGMRESKernel, syncs: innerProducts},
	// Under this name both reductions are evaluated at issue (a fleet
	// overlaps them with the wire).
	{name: "gropp", summary: "Gropp asynchronous CG (two overlapped reductions/iter), workspace-backed",
		caps: Caps{Sharded: true}, newKernel: pipecg.NewGroppKernel, blocking: true, syncs: twoPerIteration},
	{name: "lsqr", summary: "LSQR (Paige-Saunders bidiagonalization): stable least-squares over rectangular operators, workspace-backed",
		caps: Caps{Nonsymmetric: true, Rectangular: true}, newKernel: gkrylov.NewLSQRKernel, syncs: innerProducts},
	{name: "minres", summary: "MINRES (symmetric indefinite baseline), workspace-backed",
		newKernel: krylov.NewMINRESKernel, syncs: innerProducts},
	// The parcg family: the paper's three schedules on real goroutines,
	// with measured phase latencies on Result.Phases and the
	// machine-mode replay (parcgReplay). parcg-cg and parcg-pipe are
	// the cg and pipecg kernels with phase timing on, the latter with
	// its reduction overlapped.
	{name: "parcg", summary: "the paper's VRCG: cg's iterates on three blocking reductions a solve, real-parallel pipelined anchors (WithLookahead k), workspace-backed",
		newKernel: parcg.NewLookaheadKernel, drift: true, phases: true,
		// What this counts: the Gershgorin bound, every anchor awaited
		// where it was issued (start-up, restarts, emergency re-anchors),
		// and the direct (r,r) of a drift fallback or a convergence check
		// — three on a clean solve. Not counted yet: the pipelined
		// anchors, meant to ride behind the pipeline but awaited in the
		// Step that issues them (ROADMAP item 19), and the norm of the
		// true-residual audit every 32 iterations
		// (TestDeclaredSyncsAreTheWaits).
		syncs: func(er *engine.Result) int { return 1 + er.BlockingAnchors + er.FallbackDots },
		post: func(s *Solver, c *config, a Operator, res *Result) error {
			if c.blocking {
				// s-step anchor semantics: each promoted batch is waited
				// for at issue instead of riding the pipeline.
				res.Syncs += s.er.Reanchors
			}
			return parcgReplay(s, c, a, res)
		}},
	{name: "parcg-cg", summary: "standard CG with two real blocking reductions per iteration (the paper's baseline), workspace-backed",
		newKernel: krylov.NewCGKernel, phases: true, post: parcgReplay, syncs: twoPerIteration},
	{name: "parcg-pipe", summary: "Ghysels-Vanroose pipelined CG with phase timing and, on a pool, the reduction genuinely in flight behind the matvec, workspace-backed",
		newKernel: pipecg.NewGVKernel, phases: true, post: parcgReplay, syncs: onePerIteration},
	// (r,z) and (r,r) are one reduction (Workspace.Dots): two blocking
	// reductions an iteration, as cg's.
	{name: "pcg", summary: "preconditioned CG (WithPreconditioner; identity default), workspace-backed",
		caps: Caps{Sharded: true}, newKernel: krylov.NewPCGKernel, syncs: twoPerIteration},
	// Under this name the Ghysels–Vanroose reduction is evaluated at
	// issue (parcg-pipe overlaps it; a fleet overlaps it with the wire).
	{name: "pipecg", summary: "Ghysels-Vanroose pipelined CG (one fused reduction/iter), workspace-backed",
		caps: Caps{Sharded: true}, newKernel: pipecg.NewGVKernel, blocking: true, syncs: onePerIteration},
	{name: "sd", summary: "steepest descent with exact line search (baseline), workspace-backed",
		newKernel: krylov.NewSDKernel, syncs: innerProducts},
	// One batched Gram reduction plus one residual resync per block,
	// after the start-up (r,r).
	{name: "sstep", summary: "Chronopoulos-Gear s-step CG (WithBlockSize s, batched reductions), workspace-backed",
		caps: Caps{Sharded: true}, newKernel: sstep.NewKernel,
		syncs: func(er *engine.Result) int { return 2*er.Blocks + 1 }},
	// The window's scalars come from k iterations back, but its three
	// tops are one blocking reduction every iteration (Families.DirectTops);
	// the schedule also blocks at start-up, at each re-anchor (a
	// replacement re-anchors too) and for each direct fallback or
	// validation inner product.
	{name: "vrcg", summary: "the paper's restructured look-ahead CG (WithLookahead k, §5 recurrences), workspace-backed",
		newKernel: core.NewKernel, drift: true,
		syncs: func(er *engine.Result) int {
			return 1 + er.Iterations + er.Reanchors + er.FallbackDots + er.ValidationDots
		}},
}

// lookup returns the row registered under name, or nil.
func lookup(name string) *method {
	for i := range methods {
		if methods[i].name == name {
			return &methods[i]
		}
	}
	return nil
}

// MethodCaps returns the operator capabilities a method declares (the
// zero Caps for unknown names, the conservative answer).
func MethodCaps(name string) Caps {
	if m := lookup(name); m != nil {
		return m.caps
	}
	return Caps{}
}

// Methods returns the method names, sorted. CLIs derive their flag
// vocabulary from this so adding a solver never touches them.
func Methods() []string {
	names := make([]string, len(methods))
	for i := range methods {
		names[i] = methods[i].name
	}
	return names
}

// Summary returns a method's one-line description ("" for unknown
// names).
func Summary(name string) string {
	if m := lookup(name); m != nil {
		return m.summary
	}
	return ""
}

// Usage returns the method names joined by "|" — ready-made flag usage
// text.
func Usage() string { return strings.Join(Methods(), "|") }

// Describe returns a multi-line listing of every method and its
// summary, for CLI help output.
func Describe() string {
	var b strings.Builder
	for i := range methods {
		fmt.Fprintf(&b, "  %-12s %s\n", methods[i].name, methods[i].summary)
	}
	return b.String()
}

// New builds a fresh Solver for the named method, or an error wrapping
// ErrUnknownMethod listing what is available.
func New(name string) (*Solver, error) {
	m := lookup(name)
	if m == nil {
		return nil, fmt.Errorf("%w: %q (have %s)", ErrUnknownMethod, name, Usage())
	}
	return &Solver{method: m, kernel: m.newKernel()}, nil
}

// MustNew is New panicking on error, for method names known at compile
// time.
func MustNew(name string) *Solver {
	s, err := New(name)
	if err != nil {
		panic(err)
	}
	return s
}
