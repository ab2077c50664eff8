// Package vrcg is a reproduction of John Van Rosendale, "Minimizing
// Inner Product Data Dependencies in Conjugate Gradient Iteration"
// (ICASE / NASA CR-172178, ICPP 1983) — the algebraic restructuring of
// CG that hides the c*log(N) inner-product summation fan-ins behind a
// k-iteration-deep pipeline, reducing per-iteration parallel time to
// c*log(log N), and the direct ancestor of today's pipelined and s-step
// conjugate gradient methods.
//
// # Public API: the solve, sparse, precond, and server packages
//
// Four packages form the importable surface, all typed on plain
// []float64 so nothing internal leaks through the boundary.
// ARCHITECTURE.md draws how they stack.
//
// Package sparse is the data plane: CSR/COO/DIA/SELL operators,
// MatrixMarket I/O, grid stencil, Poisson and variable-coefficient
// generators, RCM reordering, spectral estimates, and the worker-pool
// handle (sparse.NewPool) the parallel kernels run on. Every matrix
// type satisfies solve.Operator, and any type with Dim/MulVec is an
// operator too.
//
// Package solve is the control plane: one Solver type, one
// canonical Result, functional options, and a method registry covering
// every CG variant in the repository —
//
//	s, err := solve.New("vrcg") // or cg, pcg, pipecg, sstep, parcg, ...
//	res, err := s.Solve(a, b,
//	        solve.WithTol(1e-10),
//	        solve.WithLookahead(4),
//	        solve.WithPool(sparse.DefaultPool))
//	fmt.Println(res.Iterations, res.Syncs, res.TrueResidualNorm)
//
// For repeated solves against one operator — the serving regime — a
// Session prepares the (method, operator, options) triple once and
// reuses its workspace and Result, so a warm Session.Solve performs
// zero heap allocations for every method; Batch (or
// Session.SolveMany) fans many right-hand sides out across forked
// sessions round-robin and aggregates the results in input order:
//
//	a, err := sparse.ReadMatrixMarket(f)
//	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-10))
//	res, err := sess.Solve(b)            // zero-alloc steady state
//	results, err := solve.Batch(sess, B) // B is [][]float64
//
// For concurrent serving, solve.SessionPool keeps warm sessions on a
// free list with per-request context injection, and solve.Params is
// the JSON wire form of the option set. Package server builds the HTTP
// serving layer on exactly those pieces: a ref-counted LRU operator
// store fed by the sparse wire codec (sparse.WireMatrix), per-request-
// shape session pools, bounded-queue backpressure, and a metrics
// endpoint reporting the session-pool hit rate — cmd/cgserve is the
// daemon, docs/api.md the endpoint reference. Package cluster extends
// the same surface across worker processes: operators row-sharded over
// a fleet, distributed CG iterations with batched halo exchange and
// coordinator-combined inner products, exposed through the server's
// /v1/cluster endpoints (cgserve -fleet / -worker-listen).
//
// Result carries the paper's comparison currency directly: operation
// counts (Stats), estimated blocking synchronization points (Syncs),
// recurrence drift diagnostics (Drift, for "vrcg"), measured
// per-iteration phase latencies (Phases, for the real-parallel "parcg*"
// methods), and — in the opt-in machine-replay mode (WithProcessors) —
// the simulated parallel-time trajectory (Clocks). Non-convergence is
// one sentinel (solve.ErrNotConverged)
// carrying a usable partial Result; breakdowns wrap solve.ErrIndefinite
// / solve.ErrBreakdown; bad parameters wrap solve.ErrBadOption — all
// errors.Is-compatible. WithContext cancels a solve mid-iteration;
// WithMonitor observes it. See the runnable examples in
// solve/example_test.go, one per method.
//
// Solvers built by solve.New own reusable workspaces: repeated solves
// against same-order operators allocate nothing in steady state.
// cmd/, examples/, and the experiment harness all go through this
// registry — a method added as one row of its table appears in the
// cgsolve CLI without touching the CLI.
//
// # Architecture: one iteration engine, many kernels
//
// The paper's point is that CG variants differ only in how they
// schedule the same few kernel steps — SpMV, inner products, vector
// updates — to hide inner-product data dependencies. The implementation
// makes that structural fact the architecture. Every shared-memory
// method is a Kernel implementing one four-hook contract against a
// shared driver (internal/engine):
//
//	          solve registry (19 methods)
//	                   │ one table of engine kernels (solve/registry.go)
//	     ┌─────────────┴─────────────┐
//	     │ engine.Solve — the driver │   owns: defaults, dim checks,
//	     │ Init / Step / Residual /  │   convergence, callbacks,
//	     │ Finish over a Workspace   │   history, classification
//	     └─────────────┬─────────────┘
//	┌────────┬─────────┼──────────┬──────────┐
//	│ krylov │ krylov  │ pipecg   │ core     │ sstep
//	│ cg,pcg │ cr, sd, │ pipecg,  │ vrcg     │ sstep
//	│ cgfused│ minres  │ gropp    │ (§5)     │ (C–G)
//	└────────┴─────────┴──────────┴──────────┘
//	                   │ engine.Workspace: size-keyed vector arena
//	     ┌─────────────┴─────────────┐
//	     │ vec.Pool + sparse SpMV    │   persistent workers,
//	     │ (pooled kernel dispatch)  │   zero-alloc dispatch
//	     └───────────────────────────┘
//
// The kernel owns only the method's numerics; the driver owns
// everything the method silos used to duplicate. Kernels draw vectors
// from the workspace arena and cache structured state (vrcg's Krylov
// families, sstep's Gram and coefficient buffers) across solves, which
// is what makes every shared-memory method — cg, cgfused, blockcg, pcg,
// blockpcg, cr, sd, minres, vrcg, pipecg, gropp, sstep, and the
// real-parallel parcg, parcg-cg, parcg-pipe — workspace-backed: a warm
// Session.Solve on any of them performs zero heap allocations (the
// background reduction goroutines of parcg and parcg-pipe are
// persistent, started by the workspace on its first overlapped
// reduction and ended with it).
//
// Session/Batch behavior by method family:
//
//	method family        warm Session.Solve   Batch fan-out
//	engine-backed (15)   0 allocs/op          forked per-worker workspaces, one rhs at a time
//
// The execution layers underneath:
//
//   - vec.Pool: a persistent worker pool for the vector kernels (dot,
//     axpy, xpay, fused CG update, batched dots). Workers are long-lived
//     goroutines woken over per-worker channels; jobs are published as
//     opcode + operand descriptors into pool-owned fields, and
//     per-worker partial-sum slabs are reused, so a kernel dispatch
//     performs zero heap allocations in steady state.
//   - sparse.CSR.MulVecPool: parallel SpMV over an nnz-balanced row
//     partition (equal work per chunk, not equal rows) precomputed at
//     matrix construction and cached on the CSR; sparse.DIA
//     parallelizes by equal row splits through the same pool. COO assembly itself is a sort-based two-pass build, not a
//     hash merge, and the grid generators skip it: each writes its
//     rows in column order straight into the CSR arrays.
//
// See ARCHITECTURE.md for the engine architecture and the
// pooled-vs-serial decision guide.
//
// # Implementation layout
//
// The implementation lives under internal/ (plus the public precond):
//
//   - internal/engine: the shared iteration driver, Kernel contract,
//     and the workspace every shared-memory method runs on (vector
//     arena, pool dispatch, reduction issue/await, phase timing)
//   - internal/core: the paper's algorithm (look-ahead CG, "VRCG")
//   - internal/krylov: classic CG/PCG/CR/SD/MINRES kernels
//   - precond (public): Jacobi, SSOR, IC0, and polynomial
//     preconditioners, usable directly with solve.WithPreconditioner
//   - internal/sstep, internal/pipecg: the published successor methods
//   - sparse (public), internal/vec: sparse operators and vector kernels
//   - internal/depth: the dependency-depth cost model of the paper
//     (its own schedules: CG, VRCG, the window form)
//   - internal/parcg: the look-ahead schedule as a real-parallel
//     engine kernel, and the cost of all three paper schedules on the
//     simulated machine, charged through a row partition (Replay, the
//     opt-in WithProcessors/WithMachineConfig monitor)
//   - internal/machine: the α–β simulated distributed machine and its
//     cost-only recursive-doubling allreduce, blocking and issued
//   - internal/trace: Figure 1 schedule rendering
//
// Executables: cmd/cgserve (the HTTP solve server; docs/api.md),
// cmd/cgbench (the experiment tables E1..E10 and Figure 1, ablations
// A1..A5), cmd/cgsolve (solver CLI over the solve registry; -matrix
// loads MatrixMarket systems and -workers/-repeat exercise the engine),
// cmd/benchjson (bench output → BENCH_engine.json, BENCH_solve.json,
// and BENCH_server.json). Runnable examples live in examples/
// (quickstart is the public-surface walkthrough). See README.md for the
// external-consumer quickstart and ARCHITECTURE.md for the system
// inventory: the full layer diagram, the Kernel contract, and the
// home of every registry method.
package vrcg
