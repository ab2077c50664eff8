package sparse

import (
	"vrcg/internal/vec"
)

// Pool is the shared worker-pool execution engine the parallel kernels
// run on: a fixed set of persistent workers executing chunked
// data-parallel jobs with zero steady-state allocations. It is exported
// here (as an alias of the internal engine type) so external callers
// can construct pools, hand them to the pool-aware operators in this
// package, and to solve.WithPool.
//
// Whether a call runs on the workers is the pool's own decision, made
// from the input size against fixed per-kernel cutoffs; below its
// kernel's cutoff a call runs serially on the calling goroutine. A nil
// *Pool is the serial pool: every product and kernel accepts it.
//
// A single Pool serializes its kernels behind an internal mutex, which
// is the natural contract for one iterative solve; independent
// concurrent solves should each own a Pool (they are cheap until their
// first dispatch spawns the workers).
type Pool = vec.Pool

// DefaultPool is a process-wide pool using all available CPUs.
var DefaultPool = vec.DefaultPool

// NewPool returns a pool with the given number of workers (at least 1;
// 1 means every kernel runs serially and no goroutines are spawned).
func NewPool(workers int) *Pool { return vec.NewPool(workers) }
