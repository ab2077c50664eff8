// Package server is the network serving layer over the solve registry:
// an HTTP JSON API that keeps uploaded operators resident and serves
// repeated solves against them from warm solve.Session pools, so the
// hot path stays in the zero-allocation steady state the Session API
// was built for. It is the subsystem the ROADMAP's "heavy traffic"
// north star asks for: operators are uploaded once, then any number of
// clients solve against them concurrently.
//
// Endpoints (docs/api.md has schemas, curl examples, and the error
// table):
//
//	POST /v1/operators    upload a matrix (CSR / COO / MatrixMarket
//	                      wire formats) into the named, ref-counted
//	                      operator store (LRU-evicted at capacity)
//	GET  /v1/operators    list resident operators
//	POST /v1/solve        one right-hand side through a pooled warm
//	                      Session (zero allocations on the solver hot
//	                      path for every engine-backed method)
//	POST /v1/solve/batch  many right-hand sides on warm pooled sessions
//	                      (solve.PooledSession.SolveMany)
//	POST /v1/sequence, POST /v1/sequence/{id}/step,
//	DELETE /v1/sequence/{id}
//	                      warm-started solve chains (solve.Sequence)
//	GET  /v1/methods      the solve registry, names + summaries
//	GET  /healthz         liveness
//	GET  /metrics         request counts, per-method latency
//	                      histograms, session-pool hit rate
//
// Each route is one handler. /v1/solve and /v1/solve/batch speak two
// framings, JSON and the binary frame of binary.go; a transport
// (transport.go), chosen by the request's Content-Type, is the two
// ends — body to pinned operator, resolved shape and right-hand sides,
// results to body — and everything between them runs once, whatever
// carried the bytes.
//
// Concurrency and backpressure: solves run under a bounded admission
// queue (Config.MaxConcurrent running + Config.MaxQueue waiting);
// requests beyond that are rejected immediately with 429 rather than
// queued without bound. Each request — a sequence step included — runs
// under a context deadline (request-supplied timeout_ms, capped by
// Config.DefaultTimeout) wired into the solver through
// solve.WithContext, so a slow solve stops at its next iteration when
// the deadline passes or its client goes away. Shutdown drains
// in-flight solves; new work is refused with 503.
//
// Construction:
//
//	srv := server.New(server.Config{})       // defaults throughout
//	http.ListenAndServe(":8080", srv.Handler())
//
// or use cmd/cgserve, the ready-made daemon.
package server
