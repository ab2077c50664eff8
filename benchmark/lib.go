package main

import (
	"fmt"
	"runtime"
	"time"

	"vrcg/precond"
	"vrcg/solve"
	"vrcg/sparse"
)

const libTol = 1e-8

// timedCSR hands a Session the operator it would have used anyway, with
// a span around each product. The engine swaps a *sparse.CSR for its
// tuned (SELL) form on entry to Solve and cannot see through a wrapper,
// so the wrapper does the same swap: the traced pass must run the same
// kernels as the untraced one. Everything but the two product methods
// is the embedded CSR's.
type timedCSR struct {
	*sparse.CSR
	tuned sparse.Matrix
	tr    *tracer
}

func newTimedCSR(a *sparse.CSR, tr *tracer) *timedCSR {
	return &timedCSR{CSR: a, tuned: sparse.TuneMulVec(a), tr: tr}
}

func (t *timedCSR) MulVec(dst, x []float64) {
	t.tr.begin("sparse.spmv")
	t.tuned.MulVec(dst, x)
	t.tr.end()
}

func (t *timedCSR) MulVecPool(pool *sparse.Pool, dst, x []float64) {
	t.tr.begin("sparse.spmv")
	sparse.PooledMulVec(t.tuned, pool, dst, x)
	t.tr.end()
}

// timedPrecond is the same decorator for a preconditioner.
type timedPrecond struct {
	solve.Preconditioner
	tr *tracer
}

func (t timedPrecond) Apply(dst, r []float64) {
	t.tr.begin("precond.apply")
	t.Preconditioner.Apply(dst, r)
	t.tr.end()
}

// runResult is what one pass over a workload's timed window(s)
// produced. op is the window both timing metrics come from.
type runResult struct {
	op        window
	attempted int
	failed    int
	firstErr  error
	tracers   []*tracer
	// perMethod is lib-ladder's solve time per method, in sweep order.
	perMethod map[string][]float64
	// rate600 and rate1200 are serve-solve's open-loop phases.
	rate600, rate1200 window
}

// append adds a later pass over the same workload to r.
func (r *runResult) append(o *runResult) {
	r.op.append(o.op)
	r.rate600.append(o.rate600)
	r.rate1200.append(o.rate1200)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.tracers = append(r.tracers, o.tracers...)
	for name, xs := range o.perMethod {
		if r.perMethod == nil {
			r.perMethod = make(map[string][]float64)
		}
		r.perMethod[name] = append(r.perMethod[name], xs...)
	}
}

func (r *runResult) add(w window) {
	r.attempted += w.attempted
	r.failed += w.failed
	if r.firstErr == nil {
		r.firstErr = w.firstErr
	}
}

// ladderMethods is one sweep, in order. cgfused is cg under a second
// label: their ratio is the benchmark's noise floor made visible.
var ladderMethods = []string{"cg", "pcg", "pipecg", "gropp", "sstep", "vrcg", "parcg", "parcg-pipe", "cgfused"}

// libLadder is the paper's comparison: one operator small enough to
// stay in L2, one right-hand side, every schedule solving it in turn.
//
// It runs at GOMAXPROCS 1. The parcg family hands its reductions to
// helper goroutines; on the two virtual cores of a shared host, whether
// those two threads get a physical core each changes by the quarter of
// an hour, and parcg's fastest solve read 30 ms in one and 39 ms in the
// next (one thread: 29.4 ms, every time). What is measured is then each
// schedule's arithmetic, memory traffic and hand-offs, not its overlap,
// which this box cannot show either way.
type libLadder struct {
	seed  int64
	procs int // GOMAXPROCS before set-up
	a     *sparse.CSR
	b     []float64
	ic0   *precond.IC0

	sessions   []*solve.Session
	iters      []int // per method, fixed by the warm-up sweep
	scratch    []float64
	ic0SetupMS float64
}

func (l *libLadder) build(op solve.Operator, m solve.Preconditioner) ([]*solve.Session, error) {
	out := make([]*solve.Session, len(ladderMethods))
	for i, name := range ladderMethods {
		opts := []solve.Option{solve.WithTol(libTol)}
		if name == "pcg" {
			opts = append(opts, solve.WithPreconditioner(m))
		}
		s, err := solve.NewSession(name, op, opts...)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func (l *libLadder) setup() error {
	l.procs = runtime.GOMAXPROCS(1)
	l.a = sparse.Poisson2D(64)
	l.b = genLadderRHS(l.seed, l.a.Dim())
	l.scratch = make([]float64, l.a.Dim())
	start := time.Now()
	ic0, err := precond.NewIC0(l.a)
	if err != nil {
		return err
	}
	l.ic0, l.ic0SetupMS = ic0, float64(time.Since(start))/1e6
	if l.sessions, err = l.build(l.a, l.ic0); err != nil {
		return err
	}
	// Two warm-up sweeps size every workspace and start the parcg
	// family's background workers; the second fixes the iteration
	// counts every later sweep must reproduce.
	l.iters = make([]int, len(ladderMethods))
	for sweep := 0; sweep < 2; sweep++ {
		for i, s := range l.sessions {
			res, err := s.Solve(l.b)
			if err != nil {
				return fmt.Errorf("lib-ladder warm-up %s: %w", ladderMethods[i], err)
			}
			l.iters[i] = res.Iterations
		}
	}
	return nil
}

// sweep solves once with each session. The returned time is the sum of
// the nine solves; residual checks run between them, untimed.
func (l *libLadder) sweep(sessions []*solve.Session, tr *tracer, per map[string][]float64) (time.Duration, error) {
	var total time.Duration
	var firstErr error
	tr.begin("op")
	for i, s := range sessions {
		name := ladderMethods[i]
		tr.begin("solve." + name)
		start := time.Now()
		res, err := s.Solve(l.b)
		d := time.Since(start)
		tr.end()
		total += d
		per[name] = append(per[name], float64(d)/1e6)
		switch {
		case err != nil:
		case res.Iterations != l.iters[i]:
			err = fmt.Errorf("%s took %d iterations, warm-up took %d", name, res.Iterations, l.iters[i])
		case !residualOK(l.a, res.X, l.b, l.scratch, libTol):
			err = fmt.Errorf("%s: %w", name, errUnverified)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	tr.end()
	return total, firstErr
}

func (l *libLadder) run(dur time.Duration, traced bool) (*runResult, error) {
	sessions, res := l.sessions, &runResult{perMethod: make(map[string][]float64)}
	var tr *tracer
	if traced {
		tr = newTracer(time.Now())
		var err error
		if sessions, err = l.build(newTimedCSR(l.a, tr), timedPrecond{l.ic0, tr}); err != nil {
			return nil, err
		}
		// Fresh sessions: size their workspaces outside the window.
		if _, err := l.sweep(sessions, nil, map[string][]float64{}); err != nil {
			return nil, err
		}
		tr.spans = tr.spans[:0] // the decorators recorded the warm-up's products
		res.tracers = []*tracer{tr}
	}
	w := window{}
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		d, err := l.sweep(sessions, tr, res.perMethod)
		w.recordBusy(d, err)
	}
	res.op = w
	res.add(w)
	return res, nil
}

func (l *libLadder) rssPID() int { return 0 }

func (l *libLadder) close() {
	if l.procs > 0 {
		runtime.GOMAXPROCS(l.procs)
	}
}

// libStream is the bandwidth-bound end: an operator many times the
// private caches, solved by cg on one thread. The judged solve is serial
// on purpose: a pool of nproc workers on an nproc-core shared box
// synchronises ~900 kernel dispatches per solve across threads the host
// may deschedule at any moment, and its fastest solve per ten seconds
// ranged 356-508 ms while the serial one's stayed within 515-545. The
// pooled solve is measured in the traced pass (vec.pool_speedup, vec.*).
type libStream struct {
	seed int64
	a    *sparse.CSR
	b    []float64

	sess    *solve.Session
	iters   int
	scratch []float64
}

const streamGrid = 64 // Poisson3D(64): n = 262144

func (l *libStream) setup() error {
	l.a = sparse.Poisson3D(streamGrid)
	l.b = genRHS(l.seed, l.a.Dim(), 1)[0]
	l.scratch = make([]float64, l.a.Dim())
	var err error
	if l.sess, err = solve.NewSession("cg", l.a, solve.WithTol(libTol)); err != nil {
		return err
	}
	res, err := l.sess.Solve(l.b) // warm-up: builds the tuned operator and the workspace
	if err != nil {
		return fmt.Errorf("lib-stream warm-up: %w", err)
	}
	l.iters = res.Iterations
	return nil
}

// solveOnce times one solve and verifies it outside the timed part.
func (l *libStream) solveOnce(s *solve.Session, tr *tracer) (time.Duration, error) {
	tr.begin("op")
	tr.begin("solve.cg")
	start := time.Now()
	res, err := s.Solve(l.b)
	d := time.Since(start)
	tr.end()
	tr.end()
	switch {
	case err != nil:
	case res.Iterations != l.iters:
		err = fmt.Errorf("cg took %d iterations, warm-up took %d", res.Iterations, l.iters)
	case !residualOK(l.a, res.X, l.b, l.scratch, libTol):
		err = errUnverified
	}
	return d, err
}

func (l *libStream) run(dur time.Duration, traced bool) (*runResult, error) {
	sess, res := l.sess, &runResult{}
	var tr *tracer
	if traced {
		tr = newTracer(time.Now())
		var err error
		if sess, err = solve.NewSession("cg", newTimedCSR(l.a, tr), solve.WithTol(libTol)); err != nil {
			return nil, err
		}
		if _, err := l.solveOnce(sess, nil); err != nil {
			return nil, err
		}
		tr.spans = tr.spans[:0] // the decorator recorded the warm-up's products
		res.tracers = []*tracer{tr}
	}
	w := window{}
	for deadline := time.Now().Add(dur); time.Now().Before(deadline); {
		d, err := l.solveOnce(sess, tr)
		w.recordBusy(d, err)
	}
	res.op = w
	res.add(w)
	return res, nil
}

func (l *libStream) rssPID() int { return 0 }
func (l *libStream) close()      {}
