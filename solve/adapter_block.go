package solve

import (
	"vrcg/internal/block"
	"vrcg/internal/engine"
)

// The block kernels run O'Leary's block CG at width one (internal/block):
// one right-hand side, so every solve, and every right-hand side of a
// Batch, is a width-one block.
func init() {
	// Each iteration blocks on three reductions — the curvature p·q,
	// the residual norm and z·r — against cg's two.
	syncs := func(er *engine.Result) int { return 3*er.Iterations + 2 }

	Register("blockcg", "block CG (O'Leary) at width one: one right-hand side a solve, workspace-backed",
		func() Solver {
			return &engineSolver{name: "blockcg", kernel: block.NewCGKernel(), syncs: syncs}
		})
	Register("blockpcg", "block preconditioned CG at width one (WithPreconditioner; identity default), workspace-backed",
		func() Solver {
			return &engineSolver{name: "blockpcg", kernel: block.NewPCGKernel(), syncs: syncs}
		})
}
