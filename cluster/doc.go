// Package cluster is the distributed-memory tier: it shards one
// operator's rows across a fleet of worker processes and runs the
// repository's CG variants as true distributed iterations, reproducing
// the message-passing setting the paper's communication-avoiding
// restructurings were designed for.
//
// # Architecture
//
// A Coordinator owns fleet membership and placement. Each Worker is a
// passive process: it accepts one control connection from the
// coordinator and peer connections from other workers, holds shards of
// placed operators, and executes its piece of each solve.
//
// Placement (Coordinator.Place) partitions the operator's rows with
// the same nnz-balanced sparse.RowPartition the shared-memory pool
// uses, then ships each worker its shard — local CSR with columns
// remapped to [owned | halo] — plus a fully resolved halo schedule:
// which contiguous halo range each neighbor's message fills, and which
// owned entries to gather for each neighbor. All structure is resolved
// at placement; per-iteration messages carry only float64 values.
//
// A distributed solve (Coordinator.Solve) has no method code of its
// own. Each worker wraps its shard as one row block of the operator (an
// engine.RowBlock) and runs the registry's kernel on it through
// solve.Solver, as a single process runs it on the whole operator; the
// methods a fleet accepts are the ones registered solve.Caps.Sharded —
// every reduction of the kernel goes through the engine workspace —
// so iteration parity with the serial solve is structural:
//
//   - SpMV: the block operator's MulVec is one batched halo message per
//     neighbor over persistent worker-to-worker connections, then the
//     local shard matvec.
//   - Inner products: every sum the workspace takes is a partial sum
//     the worker ships; the coordinator adds the partials in shard
//     order and broadcasts the result. Every worker sees identical
//     scalars, so all convergence decisions stay in lockstep, and the
//     answer does not depend on packet arrival order.
//   - Preconditioning: block-Jacobi / zero-overlap additive Schwarz.
//     Each worker builds the named precond local ("jacobi", "ssor",
//     "ic0") on its diagonal block; with "jacobi" this equals the
//     global preconditioner exactly.
//
// A schedule keeps on the wire the structure it has in the engine,
// because issuing a reduction posts the partials and awaiting it
// collects the sums: cg and pcg block on two allreduce rounds per
// iteration; gropp's (r,r) round is in flight during the w = A r halo
// exchange and matvec; pipecg's single fused [gamma, delta] round
// during the next ones; sstep pays two rounds per block of s
// iterations. Start-up and exit add three rounds and two halo
// exchanges per solve (‖b‖, the initial residual, the true residual).
// A transport failure — timeout, lost peer, abort — ends the solve
// with that error, never with a breakdown made of half-combined sums.
//
// # Fault tolerance
//
// The coordinator heartbeats every worker. When one dies, in-flight
// solves abort, the operator re-partitions across the survivors
// (the coordinator retains the full matrix), and the solve retries:
// capacity degrades, availability does not.
//
// # Observability
//
// Workers time every iteration's phases (spmv, halo, reduction wait,
// whole iteration) into local histograms shipped once per solve; the
// coordinator merges them fleet-wide per method for /metrics.
package cluster
