package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"vrcg/cluster"
	"vrcg/solve"
	"vrcg/sparse"
)

// Config sizes the server. The zero value is serviceable: every field
// has a default applied by New.
type Config struct {
	// MaxConcurrent is the number of solves allowed to run at once.
	// Default: GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue is the number of additional solve requests allowed to
	// wait for a slot; beyond MaxConcurrent+MaxQueue, requests are
	// rejected immediately with 429. Default: 4x MaxConcurrent.
	MaxQueue int
	// MaxOperators caps the operator store; least-recently-used idle
	// operators are evicted past it. Default: 32.
	MaxOperators int
	// MaxSessionPools caps the warm-session pool map. Pool keys are
	// client-controlled (every distinct params/precond/method shape is
	// one), so the cap is what bounds server memory against a client
	// spraying unique shapes; the oldest pools are dropped past it.
	// Default: 64.
	MaxSessionPools int
	// MaxSequences caps concurrently open /v1/sequence sessions; past
	// it, creates are rejected with 429 until one closes. Each open
	// sequence pins its operator and owns a private value copy plus
	// solver workspaces, so the cap is what bounds that memory.
	// Default: 64.
	MaxSequences int
	// DefaultTimeout bounds each solve — single, batch, sequence step and
	// cluster alike, from the wait for a run slot to the last iteration;
	// a request's timeout_ms can shorten it but not extend it.
	// Default: 30s.
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds request bodies (operator uploads dominate).
	// Default: 256 MiB.
	MaxBodyBytes int64
	// MaxOrder bounds the order of uploaded operators. A tiny COO or
	// MatrixMarket envelope can declare an enormous n whose CSR
	// arrays alone would exhaust memory, so the bound is enforced
	// before any order-sized allocation. Default: 1<<22 (~4.2M rows).
	MaxOrder int
	// EnginePool, when non-nil, routes every solver's SpMV and vector
	// kernels through the worker pool. A pool serializes its kernels
	// behind one lock, so with concurrent clients this trades
	// cross-request throughput for per-solve latency; leave it nil
	// (serial kernels, full cross-request parallelism) unless requests
	// are few and large.
	EnginePool *sparse.Pool
	// Cluster, when non-nil, attaches a distributed-tier coordinator
	// and enables the /v1/cluster/* endpoints: fleet membership,
	// sharded operator upload, and distributed solves across worker
	// processes. Without one those endpoints answer 404 no_cluster.
	Cluster *cluster.Coordinator
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxOperators <= 0 {
		c.MaxOperators = 32
	}
	if c.MaxSessionPools <= 0 {
		c.MaxSessionPools = 64
	}
	if c.MaxSequences <= 0 {
		c.MaxSequences = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.MaxOrder <= 0 {
		c.MaxOrder = 1 << 22
	}
	return c
}

// Server is the HTTP solve server: an operator store, warm session
// pools, a bounded admission queue, and the /v1 handler set. Create
// one with New and mount Handler on any http.Server; Shutdown drains
// in-flight solves.
type Server struct {
	cfg   Config
	store *operatorStore
	pools *sessionPools
	seqs  *sequenceRegistry
	met   *metrics
	// aff is the binary transport's shape cache (binary.go): a request
	// whose header repeats a cached one skips the session-pool lookup
	// entirely.
	aff affinity
	// scratch holds the request scratch of the solve, batch and step
	// routes between requests (transport.go).
	scratch scratchList

	// admit bounds admitted solve requests (running + waiting); a full
	// channel is the 429 backpressure signal. run bounds actual solver
	// concurrency; waiting on it is the queue.
	admit chan struct{}
	run   chan struct{}

	mux *http.ServeMux

	// lifecycle gate: every request enters and leaves under mu, so
	// Shutdown observes a consistent (closed, inflight) pair — no
	// request can slip past a drain that already returned.
	mu       sync.Mutex
	closed   bool
	inflight int
	drained  chan struct{} // created by Shutdown when inflight > 0
}

// New builds a server from cfg (zero value for defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		store: newOperatorStore(cfg.MaxOperators),
		pools: newSessionPools(cfg.EnginePool, cfg.MaxSessionPools),
		seqs:  newSequenceRegistry(cfg.MaxSequences),
		met:   newMetrics(),
		admit: make(chan struct{}, cfg.MaxConcurrent+cfg.MaxQueue),
		run:   make(chan struct{}, cfg.MaxConcurrent),
		mux:   http.NewServeMux(),
	}
	s.scratch.maxIdle = cfg.MaxConcurrent + cfg.MaxQueue
	s.mux.HandleFunc("POST /v1/operators", s.handleOperatorUpload)
	s.mux.HandleFunc("GET /v1/operators", s.handleOperatorList)
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/solve/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/sequence", s.handleSequenceCreate)
	s.mux.HandleFunc("POST /v1/sequence/{id}/step", s.handleSequenceStep)
	s.mux.HandleFunc("DELETE /v1/sequence/{id}", s.handleSequenceClose)
	s.mux.HandleFunc("GET /v1/methods", s.handleMethods)
	s.mux.HandleFunc("GET /v1/cluster/workers", s.handleClusterWorkers)
	s.mux.HandleFunc("POST /v1/cluster/operators", s.handleClusterUpload)
	s.mux.HandleFunc("POST /v1/cluster/solve", s.handleClusterSolve)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the fully instrumented HTTP handler.
func (s *Server) Handler() http.Handler { return s }

// enter registers a request with the lifecycle gate; false means the
// server is shutting down.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inflight++
	return true
}

// leave undoes enter, signaling a waiting Shutdown when the last
// request drains.
func (s *Server) leave() {
	s.mu.Lock()
	s.inflight--
	if s.closed && s.inflight == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
	s.mu.Unlock()
}

// ServeHTTP implements http.Handler with the lifecycle gate and
// request metrics around the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeLabel(r.URL.Path)
	if !s.enter() {
		writeError(w, http.StatusServiceUnavailable, codeShuttingDown, "server is shutting down")
		s.met.observeRequest(route, http.StatusServiceUnavailable)
		return
	}
	defer s.leave()
	// A declared in-bounds Content-Length needs no guard reader: the
	// transport already bounds the body, and skipping the wrapper keeps
	// the hot path allocation-free. Unknown or oversized lengths get
	// the usual 413-on-read protection.
	if r.ContentLength < 0 || r.ContentLength > s.cfg.MaxBodyBytes {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	rec := recorders.Get().(*statusRecorder)
	rec.ResponseWriter, rec.status = w, http.StatusOK
	s.mux.ServeHTTP(rec, r)
	status := rec.status
	rec.ResponseWriter = nil
	recorders.Put(rec)
	s.met.observeRequest(route, status)
}

// recorders pools the per-request status recorders.
var recorders = sync.Pool{New: func() any { return new(statusRecorder) }}

// routeLabel maps a request path onto the fixed route vocabulary the
// metrics maps are keyed by. Unknown paths share one bucket so a
// scanner spraying random URLs cannot grow the maps without bound.
func routeLabel(path string) string {
	switch path {
	case "/v1/operators", "/v1/solve", "/v1/solve/batch", "/v1/methods",
		"/v1/cluster/workers", "/v1/cluster/operators", "/v1/cluster/solve",
		"/healthz", "/metrics":
		return path
	}
	// The sequence ids are client-visible path segments; collapse them
	// so the metrics maps stay bounded.
	if path == "/v1/sequence" || strings.HasPrefix(path, "/v1/sequence/") {
		return "/v1/sequence"
	}
	return "other"
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// running is what a solve holds while it runs: its deadline, a place in
// the admission queue and a run slot, and — on the pooled routes — a
// warm session.
type running struct {
	ctx    context.Context
	cancel context.CancelFunc
	ps     *solve.PooledSession
}

// start takes a decoded request to the point where it may solve: through
// the bounded admission queue, under its deadline (solveContext) while
// it waits for a run slot and from then on, and — given a pool — with a
// warm session checked out under that deadline. On success the caller
// must finish what it returns; otherwise nothing is held and the
// request has been answered (429 on a full queue, 504 when the deadline
// passed while waiting, 499 when the client left).
func (s *Server) start(w http.ResponseWriter, r *http.Request, timeoutMS int, pool *solve.SessionPool) (run running, ok bool) {
	select {
	case s.admit <- struct{}{}:
	default:
		s.met.observeQueueReject()
		writeError(w, http.StatusTooManyRequests, codeQueueFull,
			fmt.Sprintf("solve queue full (%d running + %d waiting)", s.cfg.MaxConcurrent, s.cfg.MaxQueue))
		return run, false
	}
	run.ctx, run.cancel = s.solveContext(r, timeoutMS)
	select {
	case s.run <- struct{}{}:
	case <-run.ctx.Done():
		<-s.admit
		status, code := errorStatus(run.ctx.Err())
		run.cancel()
		writeError(w, status, code, "deadline passed while waiting for a solve slot")
		return run, false
	}
	if pool != nil {
		var err error
		if run.ps, err = pool.Acquire(run.ctx); err != nil {
			s.finish(run)
			fail(w, err)
			return run, false
		}
	}
	return run, true
}

// finish gives back what start took.
func (s *Server) finish(run running) {
	if run.ps != nil {
		run.ps.Release()
	}
	<-s.run
	<-s.admit
	run.cancel()
}

// solveContext derives the per-request solve context: the client's
// timeout_ms when given, capped by the server default.
func (s *Server) solveContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		if rd := time.Duration(timeoutMS) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// Preload installs an operator directly (no HTTP round-trip), under
// the given id — the embedding path cmd/cgserve's -preload flag and
// tests use. It follows the same store semantics as POST /v1/operators.
func (s *Server) Preload(name string, m sparse.Matrix) error {
	prewarmPartition(m, s.cfg.EnginePool)
	_, evicted, err := s.store.put(name, m)
	for _, e := range evicted {
		s.pools.dropOperator(e)
	}
	return err
}

// Shutdown refuses new requests and waits for in-flight requests to
// drain, or for ctx to expire. (Every solve, a sequence step's
// included, runs under the server's DefaultTimeout, so the drain is
// bounded.) Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	if s.inflight == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.drained == nil {
		s.drained = make(chan struct{})
	}
	drained := s.drained
	s.mu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown interrupted with requests in flight: %w", ctx.Err())
	}
}
