// Package solve is the single front door to every conjugate gradient
// variant in this repository. It presents one Solver type, one
// canonical Result, and a method registry, so the paper's comparison —
// how the five inner-product data-dependency strategies trade blocking
// reductions for pipeline depth — is a one-line method swap:
//
//	s, err := solve.New("vrcg")
//	res, err := s.Solve(a, b, solve.WithTol(1e-10), solve.WithLookahead(4))
//
// Operators come from the public sparse package (CSR/DIA matrices,
// MatrixMarket I/O, grid stencil and Poisson generators) or from any type
// implementing the two-method Operator interface on plain []float64.
// For repeated solves against one operator, prepare a Session once and
// call Session.Solve per right-hand side; for many right-hand sides,
// Batch fans them out across workers:
//
//	sess, err := solve.NewSession("cg", a, solve.WithTol(1e-10))
//	res, err := sess.Solve(b)
//	results, err := solve.Batch(sess, manyRHS)
//
// Registered methods (solve.Methods() lists them at runtime):
//
//   - "cg", "cgfused": standard Hestenes–Stiefel CG (paper §2), one
//     kernel under two names
//   - "pcg": preconditioned CG (pass WithPreconditioner)
//   - "cr", "sd", "minres": conjugate residuals, steepest descent,
//     MINRES baselines
//   - "vrcg": the paper's restructured look-ahead CG (WithLookahead,
//     WithReanchorEvery, ... control the §5 recurrences)
//   - "pipecg", "gropp": Ghysels–Vanroose and Gropp pipelined CG, the
//     production successors
//   - "sstep": Chronopoulos–Gear s-step CG (WithBlockSize)
//   - "parcg", "parcg-cg", "parcg-pipe": the look-ahead, blocking, and
//     pipelined schedules with per-step phase latencies on
//     Result.Phases. "parcg-cg" is the "cg" kernel and "parcg-pipe"
//     the "pipecg" kernel; the overlapped two run each issued
//     inner-product reduction on background goroutines until it is
//     awaited (WithBlocking evaluates it at issue instead, bitwise
//     identically; without WithPool "parcg-pipe" has none to run, its
//     sums being taken inside the one pass that updates its vectors).
//     "parcg" adds a divergence guard that restarts the look-ahead
//     recurrences from the true residual when they drift (periodically
//     audited, best iterate retained); WithProcessors/WithMachineConfig
//     additionally replay the simulated-machine cost model over the
//     solve, yielding parallel-time trajectories (Result.Clocks)
//   - "bicgstab", "gmres": square nonsymmetric systems (WithRestart m
//     for gmres); "cgnr", "lsqr": least squares over rectangular
//     operators (MethodCaps says which operators a method accepts)
//   - "blockcg", "blockpcg": second names for "cg" and "pcg", kept for
//     wire compatibility
//
// Configuration is by functional options. Options irrelevant to a
// method are ignored (WithLookahead does nothing to "cg"), so one
// option set can drive a sweep over every method.
//
// Every method is one row of the registry table (registry.go): an
// engine kernel (internal/engine: one kernel contract, one driver
// loop) and the few flags that set its schedule apart. Solvers built by
// New therefore own zero-allocation workspaces uniformly — repeated
// Solve calls against same-order operators allocate nothing in steady
// state, and a warm Session.Solve on any method is 0 allocs/op.
package solve

// Operator is a square linear operator A, stated on plain []float64 so
// any package can implement it; all methods need only matrix–vector
// products, so operators may be matrix-free. Every matrix type in the
// public sparse package satisfies it. Operators that additionally
// implement sparse.PoolMulVec (CSR, DIA and SELL do) run their
// products on the worker pool when WithPool is given. The "parcg*"
// methods' machine mode (WithProcessors, WithMachineConfig) requires a
// *sparse.CSR, whose sparsity defines the halo partition.
type Operator interface {
	// Dim returns the order n of the (n x n) operator.
	Dim() int
	// MulVec computes dst = A*x. dst and x must have length Dim and
	// must not alias each other.
	MulVec(dst, x []float64)
}

// Preconditioner applies z = M^{-1} r, stated on plain []float64.
// Implementations must be symmetric positive definite so preconditioned
// CG remains well defined. Every preconditioner in the public precond
// package satisfies it.
type Preconditioner interface {
	// Dim returns the operator order.
	Dim() int
	// Apply computes dst = M^{-1} r. dst and r must not alias.
	Apply(dst, r []float64)
}

// Monitor observes an iteration in flight. Observe is called after
// each iteration with the iteration number and the current (recursive)
// residual norm; returning false stops the solve early without error.
type Monitor interface {
	Observe(iter int, resNorm float64) bool
}

// MonitorFunc adapts a plain function to the Monitor interface.
type MonitorFunc func(iter int, resNorm float64) bool

// Observe implements Monitor.
func (f MonitorFunc) Observe(iter int, resNorm float64) bool { return f(iter, resNorm) }
