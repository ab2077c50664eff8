package solve

import (
	"vrcg/internal/engine"
	"vrcg/internal/machine"
)

// PhaseSet is the phase latency histogram bundle of the real-parallel
// methods: each driver step's time in spmv / reduction_wait / update,
// one histogram per phase in microseconds, on the same bounds as the
// cluster workers' phases. See Result.Phases.
type PhaseSet = engine.PhaseSet

// HistSnapshot is the JSON shape of every histogram on /metrics and of
// the fleet's phase latencies (server.ClusterSolveResult.Phases,
// cluster.Result.Phases): a count, sum, mean and max, and cumulative
// counts keyed by upper bound plus "+Inf". The unit is in the name of
// the enclosing block.
type HistSnapshot = engine.HistSnapshot

// Result is the canonical outcome of a solve, shared by every
// registered method. Fields a method does not produce stay at their
// zero values (Drift is nil outside "vrcg" and "parcg", Clocks nil
// outside "parcg*", Blocks zero outside "sstep").
type Result struct {
	// Method is the registry name of the solver that produced this.
	Method string
	// X is the final iterate. It may alias solver-owned workspace
	// storage: valid until the next Solve on the same Solver.
	X []float64
	// Iterations performed.
	Iterations int
	// Converged reports whether the residual tolerance was met.
	Converged bool
	// ResidualNorm is the final (recursively updated) residual 2-norm.
	ResidualNorm float64
	// TrueResidualNorm is ||b - A x|| computed directly at exit.
	TrueResidualNorm float64
	// History holds per-iteration residual norms when WithHistory was
	// given (History[0] is the initial residual).
	History []float64
	// Stats counts the work that ran: each product, inner product,
	// update and preconditioner solve, by the workspace call that ran it.
	Stats engine.Stats
	// Syncs is the number of blocking global-synchronization points of
	// the schedule, declared per method: the reductions whose completion
	// the iteration had to wait for, the quantity the paper minimizes.
	// CG waits on two an iteration (pcg too: (r,z) and (r,r) are one),
	// pipelined CG on one, s-step CG on two per block, vrcg on one — its
	// window tops — plus start-up, re-anchors and fallbacks. parcg's
	// pipelined anchors are not counted: each is still awaited in the
	// step that issues it.
	Syncs int
	// Blocks is the number of s-step blocks executed ("sstep" only).
	Blocks int
	// Drift holds the recurrence drift diagnostics of "vrcg" and
	// "parcg": how far the scalar recurrences wandered from direct
	// inner products, and the stabilization work spent keeping them
	// honest.
	Drift *Drift
	// Phases holds the measured phase latency histograms of the
	// real-parallel parcg family, one observation set per driver step:
	// the step's time in SpMV, reduction wait, and vector updates on
	// actual hardware, so the overlap the paper is about shows up as a
	// small reduction_wait against a large spmv. Nil for the other
	// methods. Aliases
	// solver-owned storage: valid until the next Solve on the same
	// Solver.
	Phases *PhaseSet
	// Clocks is the simulated parallel-time trajectory of the
	// instrumented machine mode of the parcg family (WithProcessors /
	// WithMachineConfig): Clocks[i] is the machine's max clock after
	// iteration i+1, replayed from the machine cost model over the real
	// solve's iteration count. Nil otherwise.
	Clocks []float64
	// Machine holds the simulated communication totals of the
	// distributed methods.
	Machine *machine.Stats
}

// Drift reports how the "vrcg" and "parcg" scalar recurrences behaved
// in floating point, and what stabilization they required.
type Drift struct {
	// MaxRelRR / MaxRelPAP are the maximum relative errors of the
	// recurrence (r,r) and (p,Ap) against direct inner products,
	// measured at WithValidateEvery checkpoints.
	MaxRelRR  float64
	MaxRelPAP float64
	// Checks counts drift checkpoints taken.
	Checks int
	// Reanchors counts direct window recomputations ("parcg": anchor
	// batches issued behind the pipeline); Refreshes counts family
	// rebuilds from the live residual and direction (2k+1 matvecs each;
	// "parcg": 4k, on its regrowth schedule); Replacements counts
	// true-residual replacements ("parcg": guard and audit restarts,
	// 0 on a healthy solve).
	Reanchors    int
	Refreshes    int
	Replacements int
	// FallbackDots counts direct inner products forced by a
	// non-positive recurrence value (a drift symptom near
	// convergence); ValidationDots counts diagnostic-only products.
	FallbackDots   int
	ValidationDots int
}

// PerIterTime is the steady-state simulated parallel time per iteration
// of a distributed solve, machine.PerIterTime of its Clocks: NaN for the
// shared-memory methods, which have none, or fewer than two iterations.
func (r *Result) PerIterTime() float64 { return machine.PerIterTime(r.Clocks) }

// TotalTime is the final simulated machine clock of a distributed solve
// — the end-to-end parallel time including start-up. NaN for the
// shared-memory methods.
func (r *Result) TotalTime() float64 { return machine.TotalTime(r.Clocks) }
