package solve

import (
	"vrcg/internal/block"
	"vrcg/internal/engine"
)

// The block kernels iterate s right-hand sides through one shared
// Krylov space (internal/block). A solve hands them one right-hand
// side, so through this package every solve, and every right-hand side
// of a Batch, is a width-one block; the multi-column iteration is
// reached only through the kernel itself.
func init() {
	// Each block iteration blocks on three fused reductions — the
	// curvature Gram, the per-column norms, and the (Z,R) Gram —
	// regardless of how many columns are in flight: the method's whole
	// point on the paper's synchronization ledger.
	syncs := func(er *engine.Result) int { return 3*er.Iterations + 2 }
	caps := Caps{Block: true}

	RegisterCaps("blockcg", "block CG (O'Leary) run one right-hand side at a time: a width-one block, workspace-backed",
		caps, func() Solver {
			return &engineSolver{name: "blockcg", kernel: block.NewCGKernel(), syncs: syncs}
		})
	RegisterCaps("blockpcg", "block preconditioned CG run one right-hand side at a time (WithPreconditioner; identity default), workspace-backed",
		caps, func() Solver {
			return &engineSolver{name: "blockpcg", kernel: block.NewPCGKernel(), syncs: syncs}
		})
}
