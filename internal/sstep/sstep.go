// Package sstep implements Chronopoulos–Gear s-step conjugate gradients
// (1989), the first published successor of the paper's restructuring
// idea: s CG iterations are blocked together, all inner products of a
// block are computed in one batched reduction, and the step scalars
// within the block come from scalar recurrences over that Gram data.
//
// The package exists as a comparison point (novelty note: s-step CG and
// pipelined CG descend directly from the paper): it amortizes the
// summation fan-in across a block but does not hide it, whereas the
// paper's look-ahead pipelines the fan-in behind k full iterations.
//
// The method is an engine kernel (internal/engine): this package owns
// the block algebra; the engine driver owns options, convergence,
// callbacks, and history. It reads the block size from
// engine.Config.S (>= 1; S = 1 reduces to standard CG). The callback
// runs after each CG step, the steps inside a block included, with that
// step's recurrence residual norm; returning false stops the solve at
// the end of the current block.
package sstep
