package server

import (
	"fmt"
	"strconv"
	"sync"

	"vrcg/precond"
	"vrcg/solve"
	"vrcg/sparse"
)

// sessionPools keys warm solve.SessionPools by the full request shape —
// (operator, method, preconditioner, parameter set) — so any two
// requests that would build identical sessions share one pool and hit
// its warm free list. Preconditioner setup (the IC0 factorization in
// particular) happens once per pool, not per request.
type sessionPools struct {
	mu    sync.RWMutex
	pools map[string]*solve.SessionPool
	// building tracks keys whose pool is mid-construction, so
	// concurrent first requests for one shape share a single setup
	// (preconditioner factorizations in particular are expensive)
	// instead of each building and all but one discarding.
	building map[string]chan struct{}
	// order tracks pool keys oldest-first for capacity eviction; keys
	// already deleted by dropOperator are skipped lazily.
	order []string
	// capacity bounds the map: request shapes are client-controlled
	// (any params tweak is a new key), so without a cap a client could
	// grow server memory without bound. Past it, the oldest pools are
	// dropped — their checked-out sessions finish normally and the
	// whole pool is garbage once released.
	capacity int
	// enginePool, when non-nil, is handed to every session via
	// WithPool. One sparse.Pool serializes its kernels behind a lock,
	// so this trades intra-solve parallelism across concurrent
	// requests; it is nil by default (see Config.EnginePool).
	enginePool *sparse.Pool
}

func newSessionPools(enginePool *sparse.Pool, capacity int) *sessionPools {
	return &sessionPools{
		pools:      make(map[string]*solve.SessionPool),
		building:   make(map[string]chan struct{}),
		capacity:   capacity,
		enginePool: enginePool,
	}
}

func poolKey(op *storedOperator, method, precondName string, params *solve.Params) string {
	// BatchWorkers does not change session construction (the batch
	// handler overrides fan-out per call), so it is normalized out of
	// the key — otherwise requests differing only in it would
	// fragment the warm pools.
	var norm solve.Params
	if params != nil {
		norm = *params
	}
	norm.BatchWorkers = 0
	return operatorKey(op) + method + "\x00" + precondName + "\x00" + norm.Key()
}

// operatorKey is the part of a pool key that names the operator. The
// store generation, not just the client-chosen id, is part of it: a
// name that is evicted and re-uploaded with a different matrix must
// never hit a pool built against the old one, however the eviction and
// pool cleanup interleave.
func operatorKey(op *storedOperator) string {
	return op.info.ID + "\x00" + strconv.FormatUint(op.gen, 10) + "\x00"
}

// get returns the pool for the request shape, creating it (and its
// preconditioner) on first use; concurrent first requests for one
// shape wait for a single construction. Creation errors (unknown
// method, bad preconditioner) are returned without caching, so a later
// valid request is unaffected.
func (sp *sessionPools) get(op *storedOperator, method, precondName string, params *solve.Params) (*solve.SessionPool, error) {
	key := poolKey(op, method, precondName, params)
	for {
		sp.mu.RLock()
		p, ok := sp.pools[key]
		sp.mu.RUnlock()
		if ok {
			return p, nil
		}

		sp.mu.Lock()
		if p, ok := sp.pools[key]; ok {
			sp.mu.Unlock()
			return p, nil
		}
		if ch, inflight := sp.building[key]; inflight {
			sp.mu.Unlock()
			<-ch // another request is constructing this shape
			continue
		}
		ch := make(chan struct{})
		sp.building[key] = ch
		sp.mu.Unlock()

		fresh, err := sp.build(op, method, precondName, params)

		sp.mu.Lock()
		delete(sp.building, key)
		if err == nil {
			sp.pools[key] = fresh
			sp.order = append(sp.order, key)
			sp.evictOverCapacity(key)
		}
		sp.mu.Unlock()
		close(ch)
		return fresh, err
	}
}

// build constructs the pool for one request shape (outside any lock —
// preconditioner setup can be expensive).
func (sp *sessionPools) build(op *storedOperator, method, precondName string, params *solve.Params) (*solve.SessionPool, error) {
	opts := params.Options()
	if sp.enginePool != nil {
		opts = append(opts, solve.WithPool(sp.enginePool))
	}
	if precondName != "" {
		// Preconditioner construction needs the square CSR form; a
		// rectangular operator has no meaningful M ≈ A⁻¹.
		csr, ok := op.matrix.(*sparse.CSR)
		if !ok {
			return nil, fmt.Errorf("server: precond %q requires a square operator but %q is rectangular: %w",
				precondName, op.info.ID, solve.ErrBadOption)
		}
		m, err := buildPrecond(precondName, csr)
		if err != nil {
			return nil, err
		}
		opts = append(opts, solve.WithPreconditioner(m))
	}
	return solve.NewSessionPool(method, op.matrix, opts...)
}

// evictOverCapacity drops the oldest pools past the cap, never the
// newcomer. Caller holds sp.mu.
func (sp *sessionPools) evictOverCapacity(newest string) {
	for len(sp.pools) > sp.capacity && len(sp.order) > 0 {
		oldest := sp.order[0]
		sp.order = sp.order[1:]
		if oldest == newest {
			sp.order = append(sp.order, oldest)
			continue
		}
		delete(sp.pools, oldest)
	}
}

// buildPrecond constructs the named preconditioner from the stored
// operator via the shared precond.ByName vocabulary, wrapping every
// failure (unknown name, non-SPD diagonal, failed factorization) with
// solve.ErrBadOption so the wire layer maps it to 400.
//
// One instance serves every session in the pool, but the
// triangular-solve preconditioners (SSOR, IC0) scribble on internal
// scratch in Apply and are NOT safe for concurrent use — those are
// wrapped behind a mutex. The pointwise ones (identity, jacobi) write
// only dst and stay lock-free.
func buildPrecond(name string, a *sparse.CSR) (solve.Preconditioner, error) {
	m, err := precond.ByName(name, a)
	if err != nil {
		return nil, fmt.Errorf("server: precond %q: %v: %w", name, err, solve.ErrBadOption)
	}
	switch name {
	case "ssor", "ic0":
		return &lockedPrecond{p: m}, nil
	}
	return m, nil
}

// lockedPrecond serializes Apply on a preconditioner whose
// implementation mutates internal scratch, so concurrent sessions (and
// Batch fan-out workers) can share one factorization safely. The
// triangular solves it guards are sequential across the levels of their
// dependency graph and short (tens of microseconds at n = 4096), so the
// factorization amortization is worth the contention.
type lockedPrecond struct {
	mu sync.Mutex
	p  solve.Preconditioner
}

// Dim returns the operator order.
func (l *lockedPrecond) Dim() int { return l.p.Dim() }

// Apply computes dst = M^{-1} r under the lock.
func (l *lockedPrecond) Apply(dst, r []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.p.Apply(dst, r)
}

// dropOperator removes every pool built against the given operator
// incarnation (called when the store evicts it) — memory hygiene; the
// generation in the key already guarantees a re-uploaded name cannot
// hit a stale pool. The keys leave the order list too: a stale order
// entry would otherwise evict a live pool rebuilt later under the same
// key.
func (sp *sessionPools) dropOperator(op *storedOperator) {
	prefix := operatorKey(op)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for key := range sp.pools {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			delete(sp.pools, key)
		}
	}
	kept := sp.order[:0]
	for _, key := range sp.order {
		if _, live := sp.pools[key]; live {
			kept = append(kept, key)
		}
	}
	sp.order = kept
}

// poolStats aggregates hit/miss/size counters across every pool for
// /metrics.
type poolStats struct {
	Pools    int     `json:"pools"`
	Sessions int     `json:"sessions"`
	Idle     int     `json:"idle"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
}

func (sp *sessionPools) stats() poolStats {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	var ps poolStats
	ps.Pools = len(sp.pools)
	for _, p := range sp.pools {
		st := p.Stats()
		ps.Sessions += st.Size
		ps.Idle += st.Idle
		ps.Hits += st.Hits
		ps.Misses += st.Misses
	}
	if total := ps.Hits + ps.Misses; total > 0 {
		ps.HitRate = float64(ps.Hits) / float64(total)
	}
	return ps
}
