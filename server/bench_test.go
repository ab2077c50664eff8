package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"vrcg/server"
	"vrcg/solve"
	"vrcg/sparse"
)

// Serving benchmarks, persisted by `make bench` into BENCH_server.json:
// what one request costs end to end through the handler stack (JSON
// decode, operator lookup, pooled warm session, JSON encode), and how
// the batch endpoint amortizes it. Run without the network so the
// numbers are the server's own overhead, not the kernel's loopback.

func benchServer(b *testing.B, grid int) (*server.Server, []float64) {
	b.Helper()
	return benchServerConfig(b, grid, server.Config{MaxQueue: 1 << 20})
}

func benchServerConfig(b *testing.B, grid int, cfg server.Config) (*server.Server, []float64) {
	b.Helper()
	srv := server.New(cfg)
	a := sparse.Poisson2D(grid)
	if err := srv.Preload("poisson", a); err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, a.Dim())
	for i := range rhs {
		rhs[i] = 1 + float64(i%5)
	}
	return srv, rhs
}

func benchSolveBody(b *testing.B, rhs []float64, method string) []byte {
	b.Helper()
	blob, err := json.Marshal(server.SolveRequest{
		Operator: "poisson",
		Method:   method,
		RHS:      rhs,
		Params:   &solve.Params{Tol: 1e-10},
	})
	if err != nil {
		b.Fatal(err)
	}
	return blob
}

// BenchmarkServeSolveWarm measures the steady-state single-solve
// request: every iteration after the first is a session-pool hit.
func BenchmarkServeSolveWarm(b *testing.B) {
	for _, method := range []string{"cg", "pipecg", "sstep"} {
		b.Run(method, func(b *testing.B) {
			srv, rhs := benchServer(b, 16)
			body := benchSolveBody(b, rhs, method)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// BenchmarkServeBatch measures multi-RHS amortization through
// /v1/solve/batch over the binary content type — the transport the
// batch path is built around: one frame decode and one frame encode
// per request, pooled buffers, no per-float text formatting. Columns
// are distinct, and allocs/rhs tracks how per-request overhead
// amortizes. The JSON batch path stays covered by
// BenchmarkServeBatchJSONRhs64, the rung where its per-float encode
// cost peaks.
func BenchmarkServeBatch(b *testing.B) {
	for _, nrhs := range []int{1, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("rhs%d", nrhs), func(b *testing.B) {
			srv, rhs := benchServer(b, 16)
			benchServeBatch(b, srv, rhs, nrhs)
		})
	}
}

// BenchmarkServeBatchEnginePool is BenchmarkServeBatch's rhs16 rung on
// a server whose solvers run on a 2-worker engine pool: a cg batch is
// solved by cg there too, on the same warm sessions, so it keeps the
// unpooled rung's allocation budget.
func BenchmarkServeBatchEnginePool(b *testing.B) {
	pool := sparse.NewPool(2)
	defer pool.Close()
	srv, rhs := benchServerConfig(b, 16, server.Config{MaxQueue: 1 << 20, EnginePool: pool})
	benchServeBatch(b, srv, rhs, 16)
}

// benchServeBatch times one binary batch request of nrhs distinct
// right-hand sides, derived from rhs, against srv.
func benchServeBatch(b *testing.B, srv *server.Server, rhs []float64, nrhs int) {
	B := make([][]float64, nrhs)
	for k := range B {
		col := make([]float64, len(rhs))
		for i := range col {
			col[i] = rhs[i] + float64(k)
		}
		B[k] = col
	}
	body := binSolveBody("poisson", "cg", "", &solve.Params{Tol: 1e-10}, 0, B...)
	rb := &replayBody{}
	req := httptest.NewRequest("POST", "/v1/solve/batch", nil)
	req.Header.Set("Content-Type", server.BinaryContentType)
	req.ContentLength = int64(len(body))
	req.Body = rb
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Reset(body)
		w.code = 0
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(nrhs)*float64(b.N)/b.Elapsed().Seconds(), "solves/s")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N)/float64(nrhs), "allocs/rhs")
}

// BenchmarkServeBatchJSONRhs64 pins the JSON batch path at its widest
// rung, where decoding 64 float arrays and formatting 64 solution
// vectors dominate; the pooled request scratch keeps its allocation
// count bounded.
func BenchmarkServeBatchJSONRhs64(b *testing.B) {
	const nrhs = 64
	srv, rhs := benchServer(b, 16)
	B := make([][]float64, nrhs)
	for k := range B {
		col := make([]float64, len(rhs))
		for i := range col {
			col[i] = rhs[i] + float64(k)
		}
		B[k] = col
	}
	body, err := json.Marshal(server.BatchRequest{
		Operator: "poisson",
		Method:   "cg",
		RHS:      B,
		Params:   &solve.Params{Tol: 1e-10},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/solve/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(nrhs)*float64(b.N)/b.Elapsed().Seconds(), "solves/s")
}

// discardWriter is a zero-allocation ResponseWriter so the binary
// solve bench measures the server path, not httptest's recorder.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// replayBody is a rewindable no-alloc request body.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// BenchmarkServeSolveWarmBinary measures the steady-state single solve
// over the binary content type: pooled frame decode, affinity-cached
// operator resolution, warm session, binary encode. The request and
// response writer are reused so the reported allocations are the
// server's own.
func BenchmarkServeSolveWarmBinary(b *testing.B) {
	srv, rhs := benchServer(b, 16)
	body := binSolveBody("poisson", "cg", "", &solve.Params{Tol: 1e-10}, 0, rhs)
	rb := &replayBody{}
	req := httptest.NewRequest("POST", "/v1/solve", nil)
	req.Header.Set("Content-Type", server.BinaryContentType)
	req.ContentLength = int64(len(body))
	req.Body = rb
	w := &discardWriter{h: make(http.Header)}
	rb.Reset(body)
	srv.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		b.Fatalf("warmup status %d", w.code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Reset(body)
		w.code = 0
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
}

// BenchmarkServeSequenceStep measures one step of the judged
// benchmark's serve-icp traffic through the handler stack: a 5000x6
// Jacobian and its residuals as a ~697 KB JSON body into a warm lsqr
// sequence — body read, decode, value update, a near-converged solve,
// encode. The request and writer are reused, so the allocations
// reported are the server's own.
func BenchmarkServeSequenceStep(b *testing.B) {
	step, size := icpStepper(b)
	step() // the cold solve, and the scratch's growth
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// icpStepper opens an lsqr sequence on a 5000x6 Jacobian and returns a
// function that sends it one serve-icp step body — the request and
// writer reused — and fails tb unless the step answers 200, and the
// body's size.
func icpStepper(tb testing.TB) (step func(), size int) {
	tb.Helper()
	body, _, vals := server.ICPStepBody(5000, 1)
	srv := server.New(server.Config{MaxQueue: 1 << 20})
	if err := srv.Preload("icp-jacobian", icpJacobian(vals)); err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sequence",
		bytes.NewReader([]byte(`{"operator":"icp-jacobian","method":"lsqr","params":{"tol":1e-10}}`))))
	var info server.SequenceInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || rec.Code != http.StatusCreated {
		tb.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	rb := &replayBody{}
	req := httptest.NewRequest("POST", "/v1/sequence/"+info.ID+"/step", nil)
	req.ContentLength = int64(len(body))
	req.Body = rb
	w := &discardWriter{h: make(http.Header)}
	return func() {
		rb.Reset(body)
		w.code = 0
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			tb.Fatalf("status %d", w.code)
		}
	}, len(body)
}

// BenchmarkServeMetrics measures one scrape of the observability
// endpoint: a snapshot of the counters through encoding/json.
func BenchmarkServeMetrics(b *testing.B) {
	srv, rhs := benchServer(b, 8)
	body := benchSolveBody(b, rhs, "cg")
	req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code)
		}
	}
}
