package solve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"vrcg/internal/machine"
	"vrcg/sparse"
)

// Batch solves A x = b_i for every right-hand side in B against the
// session's prepared operator with the session's own method, fanning
// the solves out across worker goroutines: each worker forks the
// session once (its own solver and reusable workspace) and takes
// right-hand sides round-robin, so a batch of any size costs a fixed
// number of workspaces.
// Results come back aggregated, in input order, each owning
// what it reports: X, History, Drift, Phases, Clocks and Machine are
// copied out of the worker's session.
//
// Per-RHS failures do not stop the batch: the returned error joins
// every failure wrapped as an *RHSError carrying its index, and
// errors.Is still matches the usual sentinels (ErrNotConverged in
// particular); errors.As against *RHSError recovers which right-hand
// side failed.
// When the session was prepared WithContext, cancellation stops every
// worker at its next iteration; right-hand sides never started report
// the context error.
//
// The worker count defaults to min(len(B), GOMAXPROCS) and can be
// pinned with WithBatchWorkers. Extra options apply to every solve in
// the batch. Option values holding state are shared across workers:
// in particular a WithPreconditioner instance whose Apply mutates
// internal scratch (precond.SSOR, precond.IC0) must be wrapped behind
// a lock or built per worker — see the precond package doc.
//
// A pool given WithPool serializes its kernels behind one lock, so
// sharing it across concurrent workers would serialize the batch's hot
// paths. Batch therefore re-slices the engine: with W > 1 workers, each
// fork gets its own pool of Workers/W workers (at least one, i.e.
// serial kernels) dispatching by the same cutoffs (Pool.Fork), closed
// when the batch completes — coarse-grained
// parallelism across right-hand sides takes precedence over
// fine-grained parallelism within one solve.
func Batch(s *Session, B [][]float64, extra ...Option) ([]Result, error) {
	if len(B) == 0 {
		return nil, nil
	}
	baseOpts := append(append([]Option(nil), s.opts...), extra...)
	cfg := newConfig(baseOpts)
	nw := batchWidth(cfg, len(B))
	var br batchRun
	return br.fanOut(B, nw, cfg.ctx, func(int) (*Session, func(), error) {
		workerOpts, wp := workerOptions(cfg, baseOpts, nw)
		sess, err := NewSession(s.method, s.op, workerOpts...)
		return sess, wp.Close, err
	}, nil)
}

// batchWidth is the number of workers a batch of n right-hand sides
// fans out to: WithBatchWorkers, else GOMAXPROCS, at most n.
func batchWidth(cfg *config, n int) int {
	nw := cfg.batchWorkers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	return min(nw, n)
}

// batchRun is the outcome of one per-right-hand-side fan-out and the
// storage each result's reports are copied into. Batch uses a fresh one
// per call, so its results own their storage; a PooledSession keeps
// one, so a warm SolveMany copies into the storage the last one grew.
type batchRun struct {
	results []Result
	errs    []error
	own     []owned
}

// owned is the storage one batch result's reports are copied into: a
// solve's Result points into its worker session (X and History into the
// workspace, Drift, Phases, Clocks and Machine into the solver), which
// the worker's next solve overwrites.
type owned struct {
	x, history, clocks []float64
	drift              Drift
	phases             PhaseSet
	machine            machine.Stats
}

// adopt copies what res points at into o and points res at the copies.
func (o *owned) adopt(res *Result) {
	o.x = append(o.x[:0], res.X...)
	res.X = o.x
	if res.History != nil {
		o.history = append(o.history[:0], res.History...)
		res.History = o.history
	}
	if res.Clocks != nil {
		o.clocks = append(o.clocks[:0], res.Clocks...)
		res.Clocks = o.clocks
	}
	if res.Drift != nil {
		o.drift = *res.Drift
		res.Drift = &o.drift
	}
	if res.Phases != nil {
		o.phases = *res.Phases
		res.Phases = &o.phases
	}
	if res.Machine != nil {
		o.machine = *res.Machine
		res.Machine = &o.machine
	}
}

// fanOut solves B round-robin across nw workers, worker 0 on the
// calling goroutine. open returns worker w's session and what ends the
// worker's use of it (nil: nothing); every solve passes extra. When ctx
// is canceled, right-hand sides not yet started report its error.
func (br *batchRun) fanOut(B [][]float64, nw int, ctx context.Context, open func(w int) (*Session, func(), error), extra []Option) ([]Result, error) {
	n := len(B)
	br.results = slices.Grow(br.results[:0], n)[:n]
	br.errs = slices.Grow(br.errs[:0], n)[:n]
	br.own = slices.Grow(br.own[:0], n)[:n]
	clear(br.results)
	clear(br.errs)
	work := func(w int) {
		sess, done, err := open(w)
		if done != nil {
			defer done()
		}
		for i := w; i < n; i += nw {
			if err != nil {
				br.errs[i] = err
				continue
			}
			if ctx != nil && ctx.Err() != nil {
				br.errs[i] = fmt.Errorf("solve: batch rhs not started: %w", ctx.Err())
				continue
			}
			res, err := sess.Solve(B[i], extra...)
			br.errs[i] = err
			if res != nil {
				br.results[i] = *res
				br.own[i].adopt(&br.results[i])
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(nw - 1)
	for w := 1; w < nw; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	return br.results, joinRHSErrors(br.errs)
}

// joinRHSErrors joins every failure in errs, wrapped as an *RHSError
// carrying its index; nil when there is none.
func joinRHSErrors(errs []error) error {
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, &RHSError{Index: i, Err: err})
		}
	}
	return errors.Join(joined...)
}

// workerOptions returns the options one of nw batch workers solves with:
// baseOpts, plus — when the session has a pool and the batch more than
// one worker — a fork of that pool with its share of the workers, which
// the worker closes when it is done (a nil pool's Close does nothing).
func workerOptions(cfg *config, baseOpts []Option, nw int) ([]Option, *sparse.Pool) {
	if cfg.pool == nil || nw < 2 {
		return baseOpts, nil
	}
	wp := cfg.pool.Fork(max(cfg.pool.Workers()/nw, 1))
	return append(append([]Option(nil), baseOpts...), WithPool(wp)), wp
}

// RHSError tags one right-hand side's failure with its index in B, so
// batch callers (the server's /v1/solve/batch in particular) can
// attribute failures without parsing messages. It wraps the underlying
// solver error for errors.Is/As.
type RHSError struct {
	// Index is the position of the failed right-hand side in B.
	Index int
	// Err is the underlying solve error.
	Err error
}

// Error implements error.
func (e *RHSError) Error() string { return fmt.Sprintf("rhs %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying solver error to errors.Is/As.
func (e *RHSError) Unwrap() error { return e.Err }

// SolveMany is Batch as a method: it solves every right-hand side in B
// against the session's operator and returns the aggregated results in
// input order.
func (s *Session) SolveMany(B [][]float64, extra ...Option) ([]Result, error) {
	return Batch(s, B, extra...)
}
