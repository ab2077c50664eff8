package solve

import (
	"fmt"

	"vrcg/internal/engine"
	"vrcg/internal/krylov"
	"vrcg/internal/machine"
	"vrcg/internal/parcg"
	"vrcg/internal/pipecg"
	"vrcg/sparse"
)

// The parcg family — the paper's three schedules on real goroutines,
// with measured phase latencies on Result.Phases. Only the look-ahead
// schedule has a kernel of its own (internal/parcg/kernels.go);
// parcg-cg and parcg-pipe are the cg and pipecg kernels registered with
// phase timing on, the latter with its reduction overlapped (the
// engine workspace runs an issued reduction on background goroutines
// unless the schedule is blocking). Registration goes through the
// generic engine adapter, so the family shares the Session/Batch
// zero-allocation fast paths with every other method; this file is
// only the options shim plus the instrumented machine mode.
//
// Machine mode: WithProcessors / WithMachineConfig layer the
// simulated-machine cost model over the real solve as a monitor — the
// adapter charges the method's schedule for the observed iteration
// count (parcg.Replay), filling Result.Clocks and Result.Machine. The
// replay needs the sparsity partition, so it requires a *sparse.CSR
// operator; the real solve itself takes any Operator.

// parcgPost is the shared post hook: machine-mode replay and the
// blocking-anchor sync count.
func parcgPost(s *engineSolver, c *config, a Operator, res *Result) error {
	if s.name == "parcg" && c.blocking {
		// s-step anchor semantics: each promoted batch is waited for at
		// issue instead of riding the pipeline.
		res.Syncs += s.er.Reanchors
	}
	if !c.machineSet && !c.procsSet {
		return nil
	}
	csr, ok := a.(*sparse.CSR)
	if !ok {
		return fmt.Errorf("solve: %s machine mode partitions by sparsity and needs a *sparse.CSR operator, got %T: %w",
			s.name, a, ErrUnsupportedOperator)
	}
	cfg := c.machineCfg
	if !c.machineSet {
		cfg = machine.DefaultConfig(c.procs)
	}
	if cfg.P < 1 || cfg.P > a.Dim() {
		return fmt.Errorf("solve: %s with P=%d processors for an order-%d system: %w",
			s.name, cfg.P, a.Dim(), ErrBadOption)
	}
	parcg.Replay(cfg, csr, s.name, c.blocking, &s.er)
	res.Clocks = s.er.Clocks
	res.Machine = &s.er.Machine
	return nil
}

// registerParcg registers one parcg schedule with phases exposure and
// the machine-mode post hook.
func registerParcg(name, summary string, kf func() engine.Kernel, syncs func(*engine.Result) int, drift bool) {
	Register(name, summary, func() Solver {
		return &engineSolver{name: name, kernel: kf(), syncs: syncs, drift: drift,
			phases: true, post: parcgPost}
	})
}

func init() {
	registerParcg("parcg", "the paper's VRCG: cg's iterates on three blocking reductions a solve, real-parallel pipelined anchors (WithLookahead k), workspace-backed",
		parcg.NewLookaheadKernel,
		// The anchors ride behind the pipeline. What blocks: the
		// Gershgorin bound, every anchor awaited where it was issued
		// (start-up, restarts, emergency re-anchors), and the direct
		// (r,r) of a drift fallback or a convergence check — three on a
		// clean solve (WithBlocking adds a stall per anchor; see
		// parcgPost).
		func(er *engine.Result) int { return 1 + er.BlockingAnchors + er.FallbackDots }, true)
	registerParcg("parcg-cg", "standard CG with two real blocking reductions per iteration (the paper's baseline), workspace-backed",
		krylov.NewCGKernel,
		// Two blocking reduction waits per iteration — the c*log(N)
		// dependency the paper sets out to remove.
		func(er *engine.Result) int { return 2*er.Iterations + 1 }, false)
	registerParcg("parcg-pipe", "Ghysels-Vanroose pipelined CG with phase timing and, on a pool, the reduction genuinely in flight behind the matvec, workspace-backed",
		pipecg.NewGVKernel,
		// One in-flight reduction waited on per iteration.
		func(er *engine.Result) int { return er.Iterations + 1 }, false)
}
