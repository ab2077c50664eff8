// Package pipecg implements the pipelined conjugate gradient methods
// that descend directly from the paper's idea and reached production
// solvers: Ghysels–Vanroose pipelined CG (2014; PETSc's KSPPIPECG) and
// Gropp's asynchronous two-reduction variant. Both restructure CG so
// global reductions overlap with the matrix–vector product — a depth-one
// version of the paper's k-deep look-ahead pipeline.
//
// Both methods are engine kernels (internal/engine): this package owns
// the pipelined recurrences; the engine driver owns options,
// convergence, callbacks, and history, and the engine workspace owns
// where an issued reduction runs — so the Ghysels–Vanroose kernel is
// both the registry's sequential "pipecg" (engine.Config.Blocking set:
// each reduction evaluated at issue) and its overlapped "parcg-pipe".
// Parallel-time behaviour is modelled in packages depth and parcg.
package pipecg
