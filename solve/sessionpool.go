package solve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SessionPool is a concurrency-safe pool of warm Sessions for one
// (method, operator, base options) triple — the serving-layer
// counterpart of Session. A Session is deliberately single-threaded (it
// owns a reusable workspace and Result); a network server handling
// concurrent requests against one operator therefore needs one session
// per in-flight solve, but creating them per request would forfeit the
// warm-workspace zero-allocation regime. SessionPool keeps finished
// sessions on a free list: Acquire pops a warm one (or forks a new one
// when the list is empty), and Release returns it.
//
// Each pooled session carries a swappable context, so per-request
// deadlines work WITHOUT re-resolving options: Acquire installs the
// request context into the session's prebuilt cancellation hook, and
// the warm Solve fast path (zero heap allocations for every
// engine-backed method) is preserved.
//
// The pool never shrinks; its size converges to the peak number of
// concurrent solves, which is what a serving layer wants. Hit/miss
// counters (Stats) expose how warm the pool is running.
type SessionPool struct {
	method string
	op     Operator
	opts   []Option

	mu   sync.Mutex
	free []*PooledSession

	hits   atomic.Uint64
	misses atomic.Uint64
	size   atomic.Int64
}

// NewSessionPool builds a pool for the named method against a. The base
// options apply to every pooled session; options needing live per-call
// objects are installed by Acquire (context) or passed to Solve (at the
// cost of the ordinary parsing path). One session is constructed
// eagerly so configuration errors surface here, not on the first
// request.
func NewSessionPool(method string, a Operator, opts ...Option) (*SessionPool, error) {
	p := &SessionPool{
		method: method,
		op:     a,
		opts:   append([]Option(nil), opts...),
	}
	ps, err := p.newSession()
	if err != nil {
		return nil, err
	}
	p.free = append(p.free, ps)
	return p, nil
}

func (p *SessionPool) newSession() (*PooledSession, error) {
	sctx := &swapContext{}
	opts := make([]Option, 0, len(p.opts)+1)
	opts = append(opts, p.opts...)
	opts = append(opts, WithContext(sctx))
	sess, err := NewSession(p.method, p.op, opts...)
	if err != nil {
		return nil, err
	}
	p.size.Add(1)
	return &PooledSession{sess: sess, pool: p, sctx: sctx}, nil
}

// Method returns the registry name the pool serves.
func (p *SessionPool) Method() string { return p.method }

// Operator returns the operator the pool's sessions are prepared
// against.
func (p *SessionPool) Operator() Operator { return p.op }

// Acquire returns a session ready to solve under ctx (nil means no
// deadline): a warm one from the free list when available, a freshly
// forked one otherwise. The caller must Release it when done with the
// returned Results — a released session's Result and X are reused by
// the next acquirer.
func (p *SessionPool) Acquire(ctx context.Context) (*PooledSession, error) {
	var ps *PooledSession
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		ps = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if ps != nil {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
		var err error
		ps, err = p.newSession()
		if err != nil {
			return nil, err
		}
	}
	ps.sctx.set(ctx)
	return ps, nil
}

// SessionPoolStats is a snapshot of pool effectiveness counters.
type SessionPoolStats struct {
	// Hits counts Acquires served from the free list (warm sessions);
	// Misses counts Acquires that had to construct a new session.
	Hits, Misses uint64
	// Size is the number of sessions the pool has ever constructed
	// (free + in flight); Idle is the current free-list length.
	Size, Idle int
}

// HitRate returns Hits/(Hits+Misses), or 0 before the first Acquire.
func (s SessionPoolStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the pool counters.
func (p *SessionPool) Stats() SessionPoolStats {
	p.mu.Lock()
	idle := len(p.free)
	p.mu.Unlock()
	return SessionPoolStats{
		Hits:   p.hits.Load(),
		Misses: p.misses.Load(),
		Size:   int(p.size.Load()),
		Idle:   idle,
	}
}

// PooledSession is a Session checked out of a SessionPool, bound to the
// context given to Acquire. All solve results are valid only until
// Release.
type PooledSession struct {
	sess *Session
	pool *SessionPool
	sctx *swapContext

	// SolveMany's reused state: the fan-out's results and the storage
	// their reports are copied into, the call's resolved options,
	// the extras its solves pass, and a config setsBatchWorkers probes.
	batch        batchRun
	cfg, probe   config
	perSolveOpts []Option
}

// Session exposes the underlying prepared session.
func (ps *PooledSession) Session() *Session { return ps.sess }

// Solve runs the prepared method on b under the acquired context; see
// Session.Solve. The Result is valid until Release.
func (ps *PooledSession) Solve(b []float64, extra ...Option) (*Result, error) {
	return ps.sess.Solve(b, extra...)
}

// SolveMany fans B out as Batch does, with Batch's results, under the
// acquired context, but on warm sessions: this one and, for each further
// worker, one acquired from the same pool and released when the batch
// is done. What each Result reports is copied into storage the
// PooledSession keeps, so the Results are valid until Release; see
// Batch.
func (ps *PooledSession) SolveMany(B [][]float64, extra ...Option) ([]Result, error) {
	if len(B) == 0 {
		return nil, nil
	}
	s := ps.sess
	ps.cfg = *s.cfg
	ps.perSolveOpts = ps.perSolveOpts[:0]
	for _, o := range extra {
		o(&ps.cfg)
		if !setsBatchWorkers(o, &ps.probe) {
			ps.perSolveOpts = append(ps.perSolveOpts, o)
		}
	}
	return ps.batch.fanOut(B, batchWidth(&ps.cfg, len(B)), ps.cfg.ctx, ps.worker, ps.perSolveOpts)
}

// worker is SolveMany's source of worker sessions: worker 0 is ps,
// every other one a session acquired under ps's request context.
func (ps *PooledSession) worker(w int) (*Session, func(), error) {
	if w == 0 {
		return ps.sess, nil, nil
	}
	q, err := ps.pool.Acquire(ps.sctx.current())
	if err != nil {
		return nil, nil, err
	}
	return q.sess, q.Release, nil
}

// setsBatchWorkers reports whether o is a WithBatchWorkers option — the
// one option that writes config.batchWorkers — by applying it to probe
// under two different marks.
func setsBatchWorkers(o Option, probe *config) bool {
	for _, mark := range [2]int{-1, -2} {
		*probe = config{batchWorkers: mark}
		o(probe)
		if probe.batchWorkers != mark {
			return true
		}
	}
	return false
}

// Release clears the request context and returns the session to the
// pool. The session (and any Result it produced) must not be used
// afterward.
func (ps *PooledSession) Release() {
	ps.sctx.set(nil)
	ps.pool.mu.Lock()
	ps.pool.free = append(ps.pool.free, ps)
	ps.pool.mu.Unlock()
}

// swapContext is a context.Context whose inner context can be replaced
// between solves. Sessions capture their context at construction; the
// pool instead captures one swapContext per session and points it at
// each request's context in turn, preserving the prebuilt zero-alloc
// callback across requests with different deadlines.
type swapContext struct {
	inner atomic.Pointer[contextBox]
	// box is the one reused container: set is only ever called by the
	// session's current owner (Acquire before handing it out, Release
	// after the last read), so mutating the box between checkouts is
	// unobservable and the per-request allocation disappears.
	box contextBox
}

// contextBox lifts the Context interface value into a concrete type
// atomic.Pointer can hold.
type contextBox struct{ ctx context.Context }

func (s *swapContext) set(ctx context.Context) {
	if ctx == nil {
		s.inner.Store(nil)
		s.box.ctx = nil // drop the request context reference
		return
	}
	s.box.ctx = ctx
	s.inner.Store(&s.box)
}

func (s *swapContext) current() context.Context {
	if b := s.inner.Load(); b != nil {
		return b.ctx
	}
	return context.Background()
}

// Deadline implements context.Context.
func (s *swapContext) Deadline() (time.Time, bool) { return s.current().Deadline() }

// Done implements context.Context.
func (s *swapContext) Done() <-chan struct{} { return s.current().Done() }

// Err implements context.Context.
func (s *swapContext) Err() error { return s.current().Err() }

// Value implements context.Context.
func (s *swapContext) Value(key any) any { return s.current().Value(key) }
