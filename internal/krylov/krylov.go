// Package krylov implements the classical iterative solvers the paper's
// new algorithm is measured against: steepest descent, the standard
// Hestenes–Stiefel conjugate gradient iteration (the "standard CG" of
// the paper's section 2), preconditioned CG, conjugate residuals, and
// MINRES.
//
// Every method is an engine kernel (internal/engine): this package owns
// only the numerics of each iteration — Init/Step/Residual/Finish over
// the shared workspace arena — while the engine driver owns option
// defaults, convergence checks, callbacks, and history. A caller runs a
// kernel through engine.Solve on a workspace it keeps, which allocates
// nothing once warm, or once through engine.SolveOnce; pcg reads its
// preconditioner from engine.Config.Precond.
//
// Every solver reports operation statistics (matrix–vector products,
// inner products, vector updates, flops) so the sequential-complexity
// experiment (paper §6: "we still need two inner products and a matrix
// vector product at every iteration") can compare algorithms exactly.
package krylov
