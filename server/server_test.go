package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vrcg/server"
	"vrcg/solve"
	"vrcg/sparse"
)

// testClient wraps an httptest server with JSON round-trip helpers.
type testClient struct {
	t      *testing.T
	srv    *httptest.Server
	server *server.Server
}

func newTestClient(t *testing.T, cfg server.Config) *testClient {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &testClient{t: t, srv: ts, server: s}
}

// post sends body as JSON and decodes the response into out (skipped
// when out is nil), returning the HTTP status.
func (c *testClient) post(path string, body, out any) int {
	c.t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Post(c.srv.URL+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func (c *testClient) get(path string, out any) int {
	c.t.Helper()
	resp, err := http.Get(c.srv.URL + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// upload installs a under the given name and returns its info.
func (c *testClient) upload(name string, a *sparse.CSR) server.OperatorInfo {
	c.t.Helper()
	var info server.OperatorInfo
	status := c.post("/v1/operators", server.OperatorUpload{
		Name:   name,
		Matrix: *sparse.EncodeCSR(a),
	}, &info)
	if status != http.StatusCreated {
		c.t.Fatalf("upload %q: status %d", name, status)
	}
	return info
}

func testSystem(n int) (*sparse.CSR, []float64) {
	a := sparse.Poisson2D(n)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = 1 + float64(i%5)
	}
	return a, b
}

func TestUploadSolveParity(t *testing.T) {
	a, b := testSystem(12)
	c := newTestClient(t, server.Config{})
	info := c.upload("poisson", a)
	if info.N != a.Dim() || info.NNZ != a.NNZ() || !info.Symmetric {
		t.Fatalf("bad operator info: %+v", info)
	}

	want, err := solve.MustNew("cg").Solve(a, b, solve.WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}

	var res server.WireResult
	status := c.post("/v1/solve", server.SolveRequest{
		Operator: "poisson",
		Method:   "cg",
		RHS:      b,
		Params:   &solve.Params{Tol: 1e-10},
	}, &res)
	if status != http.StatusOK {
		t.Fatalf("solve status %d (%+v)", status, res)
	}
	if !res.Converged || res.Method != "cg" {
		t.Fatalf("bad result: %+v", res)
	}
	if len(res.X) != len(want.X) {
		t.Fatalf("x length %d, want %d", len(res.X), len(want.X))
	}
	for i := range res.X {
		if d := math.Abs(res.X[i] - want.X[i]); d > 1e-12 {
			t.Fatalf("served solve deviates from direct solve.Solve at %d by %g", i, d)
		}
	}
	if res.Iterations != want.Iterations {
		t.Fatalf("iterations %d, want %d", res.Iterations, want.Iterations)
	}
}

func TestBatchParity(t *testing.T) {
	a, b := testSystem(10)
	B := make([][]float64, 5)
	for k := range B {
		B[k] = make([]float64, len(b))
		for i := range b {
			B[k][i] = b[i] + float64(k)
		}
	}
	c := newTestClient(t, server.Config{})
	c.upload("poisson", a)

	var resp server.BatchResponse
	status := c.post("/v1/solve/batch", server.BatchRequest{
		Operator: "poisson",
		Method:   "pipecg",
		RHS:      B,
		Params:   &solve.Params{Tol: 1e-10},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("batch status %d (error %q)", status, resp.Error)
	}
	if len(resp.Results) != len(B) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(B))
	}
	for k := range B {
		want, err := solve.MustNew("pipecg").Solve(a, B[k], solve.WithTol(1e-10))
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Results[k]
		if !got.Converged {
			t.Fatalf("rhs %d did not converge", k)
		}
		for i := range got.X {
			if d := math.Abs(got.X[i] - want.X[i]); d > 1e-12 {
				t.Fatalf("rhs %d deviates from direct solve at %d by %g", k, i, d)
			}
		}
	}
}

func TestPreconditionedSolve(t *testing.T) {
	a, b := testSystem(10)
	c := newTestClient(t, server.Config{})
	c.upload("poisson", a)
	for _, pc := range []string{"identity", "jacobi", "ssor", "ic0"} {
		var res server.WireResult
		status := c.post("/v1/solve", server.SolveRequest{
			Operator: "poisson", Method: "pcg", RHS: b,
			Params:  &solve.Params{Tol: 1e-10},
			Precond: pc,
		}, &res)
		if status != http.StatusOK || !res.Converged {
			t.Fatalf("pcg+%s: status %d converged %v", pc, status, res.Converged)
		}
		if res.Stats.PrecondSolves == 0 {
			t.Fatalf("pcg+%s: preconditioner never applied", pc)
		}
	}
}

// TestConcurrentPreconditionedSolves shares one SSOR/IC0
// factorization across concurrent sessions — the path where unguarded
// preconditioner scratch raced under -race.
func TestConcurrentPreconditionedSolves(t *testing.T) {
	a, b := testSystem(10)
	c := newTestClient(t, server.Config{MaxConcurrent: 4, MaxQueue: 1024})
	c.upload("poisson", a)
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pc := []string{"ssor", "ic0"}[g%2]
			for k := 0; k < 4; k++ {
				var res server.WireResult
				status := c.post("/v1/solve", server.SolveRequest{
					Operator: "poisson", Method: "pcg", RHS: b,
					Params: &solve.Params{Tol: 1e-10}, Precond: pc,
				}, &res)
				if status != http.StatusOK || !res.Converged {
					errc <- fmt.Errorf("pcg+%s: status %d converged %v", pc, status, res.Converged)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestOperatorNameValidation(t *testing.T) {
	a, _ := testSystem(6)
	c := newTestClient(t, server.Config{})
	var errResp server.ErrorResponse
	if status := c.post("/v1/operators", server.OperatorUpload{
		Name: "evil\x00name", Matrix: *sparse.EncodeCSR(a),
	}, &errResp); status != http.StatusBadRequest {
		t.Fatalf("NUL name accepted: %d %+v", status, errResp)
	}
	// An explicitly claimed auto-style id must not break auto-naming.
	c.upload("op-1", a)
	var info server.OperatorInfo
	if status := c.post("/v1/operators", server.OperatorUpload{
		Matrix: *sparse.EncodeCSR(a),
	}, &info); status != http.StatusCreated || info.ID == "op-1" || info.ID == "" {
		t.Fatalf("auto-name collided: %d %+v", status, info)
	}
}

func TestMethodsAndHealth(t *testing.T) {
	c := newTestClient(t, server.Config{})
	var ml server.MethodList
	if status := c.get("/v1/methods", &ml); status != http.StatusOK {
		t.Fatalf("methods status %d", status)
	}
	if len(ml.Methods) != len(solve.Methods()) {
		t.Fatalf("got %d methods, registry has %d", len(ml.Methods), len(solve.Methods()))
	}
	for _, m := range ml.Methods {
		if m.Summary == "" {
			t.Fatalf("method %q has no summary", m.Name)
		}
	}
	var h server.Health
	if status := c.get("/healthz", &h); status != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: status %d body %+v", status, h)
	}
}

func TestMetricsReportPoolHitRate(t *testing.T) {
	a, b := testSystem(8)
	c := newTestClient(t, server.Config{})
	c.upload("poisson", a)
	req := server.SolveRequest{Operator: "poisson", Method: "cg", RHS: b}
	for i := 0; i < 4; i++ {
		if status := c.post("/v1/solve", req, nil); status != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, status)
		}
	}
	var snap struct {
		Requests     map[string]uint64 `json:"requests"`
		SessionPools struct {
			Pools   int     `json:"pools"`
			Hits    uint64  `json:"hits"`
			Misses  uint64  `json:"misses"`
			HitRate float64 `json:"hit_rate"`
		} `json:"session_pools"`
		SolveLatency map[string]struct {
			Count uint64 `json:"count"`
		} `json:"solve_latency_ms"`
		Operators struct {
			Count int `json:"count"`
		} `json:"operators"`
	}
	if status := c.get("/metrics", &snap); status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	// Sequential requests reuse the one warm session: 4 hits, 0 misses.
	if snap.SessionPools.Pools != 1 || snap.SessionPools.Hits != 4 || snap.SessionPools.Misses != 0 {
		t.Fatalf("pool stats: %+v", snap.SessionPools)
	}
	if snap.SessionPools.HitRate != 1 {
		t.Fatalf("hit rate %v, want 1", snap.SessionPools.HitRate)
	}
	if snap.SolveLatency["cg"].Count != 4 {
		t.Fatalf("latency histogram count %d, want 4", snap.SolveLatency["cg"].Count)
	}
	if snap.Requests["/v1/solve"] != 4 || snap.Operators.Count != 1 {
		t.Fatalf("requests %v operators %v", snap.Requests, snap.Operators)
	}
}

// TestMetricsReportSolvePhases: a solve on an instrumented method (the
// real-parallel parcg family) surfaces its measured per-iteration phase
// histograms under solve_phase_latency_us; plain cg contributes none.
func TestMetricsReportSolvePhases(t *testing.T) {
	a, b := testSystem(8)
	c := newTestClient(t, server.Config{})
	c.upload("poisson", a)
	for _, method := range []string{"parcg-pipe", "cg"} {
		req := server.SolveRequest{Operator: "poisson", Method: method, RHS: b}
		if status := c.post("/v1/solve", req, nil); status != http.StatusOK {
			t.Fatalf("%s solve: status %d", method, status)
		}
	}
	var snap struct {
		SolvePhases map[string]map[string]struct {
			Count   uint64            `json:"count"`
			Mean    float64           `json:"mean"`
			Buckets map[string]uint64 `json:"buckets"`
		} `json:"solve_phase_latency_us"`
	}
	if status := c.get("/metrics", &snap); status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	phases, ok := snap.SolvePhases["parcg-pipe"]
	if !ok {
		t.Fatalf("no parcg-pipe block in solve_phase_latency_us: %v", snap.SolvePhases)
	}
	for _, phase := range []string{"spmv", "reduction_wait", "update"} {
		h, ok := phases[phase]
		if !ok || h.Count == 0 {
			t.Errorf("phase %q missing or empty: %+v", phase, h)
		}
		if h.Buckets["+Inf"] != h.Count {
			t.Errorf("phase %q: cumulative +Inf bucket %d != count %d", phase, h.Buckets["+Inf"], h.Count)
		}
	}
	if _, ok := snap.SolvePhases["cg"]; ok {
		t.Error("cg has no phase instrumentation but appears in solve_phase_latency_us")
	}
}

func TestDeadlineCancelsSolve(t *testing.T) {
	a, b := testSystem(64) // n=4096: far more than 1ms of iteration at tol 1e-300
	c := newTestClient(t, server.Config{})
	c.upload("poisson", a)
	var errResp server.ErrorResponse
	status := c.post("/v1/solve", server.SolveRequest{
		Operator:  "poisson",
		Method:    "cg",
		RHS:       b,
		Params:    &solve.Params{Tol: 1e-300, MaxIter: 10_000_000},
		TimeoutMS: 1,
	}, &errResp)
	if status != http.StatusGatewayTimeout || errResp.Code != "deadline_exceeded" {
		t.Fatalf("want 504 deadline_exceeded, got %d %+v", status, errResp)
	}
}

func TestNotConvergedCarriesPartialResult(t *testing.T) {
	a, b := testSystem(12)
	c := newTestClient(t, server.Config{})
	c.upload("poisson", a)
	var res server.WireResult
	status := c.post("/v1/solve", server.SolveRequest{
		Operator: "poisson", Method: "cg", RHS: b,
		Params: &solve.Params{Tol: 1e-12, MaxIter: 3},
	}, &res)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("want 422, got %d", status)
	}
	if res.Error != "not_converged" || res.Converged || res.Iterations != 3 || len(res.X) == 0 {
		t.Fatalf("partial result not usable: %+v", res)
	}
}

func TestBatchPerResultErrorAttribution(t *testing.T) {
	a, b := testSystem(10)
	c := newTestClient(t, server.Config{})
	c.upload("poisson", a)
	var resp server.BatchResponse
	status := c.post("/v1/solve/batch", server.BatchRequest{
		Operator: "poisson", Method: "cg",
		RHS:    [][]float64{b, b},
		Params: &solve.Params{Tol: 1e-12, MaxIter: 2},
	}, &resp)
	if status != http.StatusUnprocessableEntity || resp.Error != "not_converged" {
		t.Fatalf("want 422 not_converged, got %d %q", status, resp.Error)
	}
	for i, r := range resp.Results {
		if r.Error != "not_converged" || r.Converged || len(r.X) == 0 {
			t.Fatalf("result %d not attributed: %+v", i, r)
		}
	}
}

func TestErrorTable(t *testing.T) {
	a, b := testSystem(6)
	c := newTestClient(t, server.Config{})
	c.upload("poisson", a)
	// An SPD pattern whose first diagonal entry is +Inf (JSON cannot
	// carry one, an embedding caller can): "is it positive" says yes.
	infDiag := sparse.NewCSR(3, []int{0, 2, 5, 7}, []int{0, 1, 0, 1, 2, 1, 2},
		[]float64{math.Inf(1), -1, -1, 2, -1, -1, 2})
	if err := c.server.Preload("infdiag", infDiag); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		req        server.SolveRequest
		wantStatus int
		wantCode   string
	}{
		{"unknown operator", server.SolveRequest{Operator: "nope", Method: "cg", RHS: b},
			http.StatusNotFound, "unknown_operator"},
		{"unknown method", server.SolveRequest{Operator: "poisson", Method: "zigzag", RHS: b},
			http.StatusBadRequest, "unknown_method"},
		{"dim mismatch", server.SolveRequest{Operator: "poisson", Method: "cg", RHS: []float64{1, 2}},
			http.StatusBadRequest, "dim_mismatch"},
		{"bad params", server.SolveRequest{Operator: "poisson", Method: "cg", RHS: b,
			Params: &solve.Params{Tol: -1}},
			http.StatusBadRequest, "bad_option"},
		{"bad precond", server.SolveRequest{Operator: "poisson", Method: "pcg", RHS: b,
			Precond: "magic"},
			http.StatusBadRequest, "bad_option"},
		{"ic0 on a non-finite diagonal", server.SolveRequest{Operator: "infdiag", Method: "pcg", RHS: []float64{1, 1, 1},
			Precond: "ic0"},
			http.StatusBadRequest, "bad_option"},
	}
	for _, tc := range cases {
		var errResp server.ErrorResponse
		status := c.post("/v1/solve", tc.req, &errResp)
		if status != tc.wantStatus || errResp.Code != tc.wantCode {
			t.Errorf("%s: got %d %q, want %d %q",
				tc.name, status, errResp.Code, tc.wantStatus, tc.wantCode)
		}
	}

	// Duplicate upload → 409.
	var errResp server.ErrorResponse
	if status := c.post("/v1/operators", server.OperatorUpload{
		Name: "poisson", Matrix: *sparse.EncodeCSR(a),
	}, &errResp); status != http.StatusConflict || errResp.Code != "operator_exists" {
		t.Fatalf("duplicate upload: %d %+v", status, errResp)
	}
	// Malformed matrix → 400 bad_matrix.
	if status := c.post("/v1/operators", server.OperatorUpload{
		Matrix: sparse.WireMatrix{Format: "csr", N: -1},
	}, &errResp); status != http.StatusBadRequest || errResp.Code != "bad_matrix" {
		t.Fatalf("malformed matrix: %d %+v", status, errResp)
	}
}

func TestOperatorLRUEviction(t *testing.T) {
	c := newTestClient(t, server.Config{MaxOperators: 2})
	a, b := testSystem(6)
	c.upload("first", a)
	c.upload("second", a)
	c.upload("third", a) // evicts "first", the least recently used

	var list server.OperatorList
	if status := c.get("/v1/operators", &list); status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	if len(list.Operators) != 2 {
		t.Fatalf("store holds %d operators, want 2", len(list.Operators))
	}
	var errResp server.ErrorResponse
	if status := c.post("/v1/solve", server.SolveRequest{
		Operator: "first", Method: "cg", RHS: b,
	}, &errResp); status != http.StatusNotFound {
		t.Fatalf("evicted operator still solvable: %d", status)
	}
	if status := c.post("/v1/solve", server.SolveRequest{
		Operator: "second", Method: "cg", RHS: b,
	}, nil); status != http.StatusOK {
		t.Fatalf("resident operator failed: %d", status)
	}
}

// TestOversizedUploadRejected: a 100-byte envelope declaring a
// billion-row matrix must not allocate anything order-sized.
func TestOversizedUploadRejected(t *testing.T) {
	c := newTestClient(t, server.Config{})
	var errResp server.ErrorResponse
	status := c.post("/v1/operators", server.OperatorUpload{
		Matrix: sparse.WireMatrix{Format: sparse.WireCOO, N: 2_000_000_000},
	}, &errResp)
	if status != http.StatusBadRequest || errResp.Code != "bad_matrix" {
		t.Fatalf("oversized upload: %d %+v", status, errResp)
	}
}

// TestReuploadedNameGetsFreshState: after an operator is evicted and
// its name reused for a different matrix, solves against the name must
// reflect the new matrix, never a session pool built for the old one.
func TestReuploadedNameGetsFreshState(t *testing.T) {
	c := newTestClient(t, server.Config{MaxOperators: 1})
	small := sparse.Poisson1D(8)
	big := sparse.Poisson1D(16)
	c.upload("x", small)
	rhs8 := make([]float64, 8)
	for i := range rhs8 {
		rhs8[i] = 1
	}
	if status := c.post("/v1/solve", server.SolveRequest{
		Operator: "x", Method: "cg", RHS: rhs8,
	}, nil); status != http.StatusOK {
		t.Fatalf("first solve: %d", status)
	}
	c.upload("y", small) // evicts "x"
	c.upload("x", big)   // same name, different matrix
	rhs16 := make([]float64, 16)
	for i := range rhs16 {
		rhs16[i] = 1
	}
	var res server.WireResult
	if status := c.post("/v1/solve", server.SolveRequest{
		Operator: "x", Method: "cg", RHS: rhs16,
	}, &res); status != http.StatusOK || len(res.X) != 16 {
		t.Fatalf("re-uploaded name served stale state: status %d len(x)=%d", status, len(res.X))
	}
	var errResp server.ErrorResponse
	if status := c.post("/v1/solve", server.SolveRequest{
		Operator: "x", Method: "cg", RHS: rhs8,
	}, &errResp); status != http.StatusBadRequest || errResp.Code != "dim_mismatch" {
		t.Fatalf("old-order rhs accepted against new matrix: %d %+v", status, errResp)
	}
}

// TestConcurrentClients hammers one server from many goroutines under
// -race: mixed methods against one operator, every response must be a
// converged 200 matching the direct solve.
func TestConcurrentClients(t *testing.T) {
	a, b := testSystem(10)
	c := newTestClient(t, server.Config{MaxConcurrent: 4, MaxQueue: 1024})
	c.upload("poisson", a)

	methods := []string{"cg", "pipecg", "gropp", "sstep"}
	want := make(map[string][]float64)
	for _, m := range methods {
		res, err := solve.MustNew(m).Solve(a, b, solve.WithTol(1e-10))
		if err != nil {
			t.Fatal(err)
		}
		want[m] = append([]float64(nil), res.X...)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 128)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{Timeout: 60 * time.Second}
			for k := 0; k < 6; k++ {
				method := methods[(g+k)%len(methods)]
				blob, _ := json.Marshal(server.SolveRequest{
					Operator: "poisson", Method: method, RHS: b,
					Params: &solve.Params{Tol: 1e-10},
				})
				resp, err := client.Post(c.srv.URL+"/v1/solve", "application/json", bytes.NewReader(blob))
				if err != nil {
					errc <- err
					return
				}
				var res server.WireResult
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK || !res.Converged {
					errc <- fmt.Errorf("goroutine %d: %s status %d converged %v",
						g, method, resp.StatusCode, res.Converged)
					return
				}
				for i := range res.X {
					if math.Abs(res.X[i]-want[method][i]) > 1e-12 {
						errc <- fmt.Errorf("%s deviates under concurrency at %d", method, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
