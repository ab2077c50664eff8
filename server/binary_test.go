package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"vrcg/cluster/wire"
	"vrcg/server"
	"vrcg/solve"
	"vrcg/sparse"
)

// binSolveBody frames one binary request (shared by /v1/solve with one
// rhs and /v1/solve/batch with many).
func binSolveBody(operator, method, precond string, params *solve.Params, timeoutMS int, rhs ...[]float64) []byte {
	enc := wire.NewEnc(64)
	enc.U8(1)
	enc.Str(operator)
	enc.Str(method)
	enc.Str(precond)
	if params != nil {
		blob, err := json.Marshal(params)
		if err != nil {
			panic(err)
		}
		enc.Str(string(blob))
	} else {
		enc.Str("")
	}
	enc.U32(uint32(timeoutMS))
	enc.U32(uint32(len(rhs)))
	for _, b := range rhs {
		enc.F64s(b)
	}
	out := append([]byte(nil), enc.B...)
	enc.Release()
	return out
}

// binResult is one decoded response section.
type binResult struct {
	code             string
	method           string
	converged        bool
	iterations       int
	residualNorm     float64
	trueResidualNorm float64
	x                []float64
}

// decodeBinResponse parses a binary response frame.
func decodeBinResponse(t *testing.T, body []byte) (topCode string, results []binResult) {
	t.Helper()
	d := wire.NewDec(body)
	if v := d.U8(); v != 1 {
		t.Fatalf("binary response version %d", v)
	}
	topCode = d.Str()
	n := int(d.U32())
	for i := 0; i < n; i++ {
		var r binResult
		r.code = d.Str()
		r.method = d.Str()
		r.converged = d.U8() == 1
		r.iterations = int(d.U32())
		r.residualNorm = d.F64()
		r.trueResidualNorm = d.F64()
		r.x = d.F64s(nil)
		results = append(results, r)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("binary response decode: %v", err)
	}
	return topCode, results
}

func (c *testClient) postBin(path string, body []byte) (*http.Response, []byte) {
	c.t.Helper()
	resp, err := http.Post(c.srv.URL+path, server.BinaryContentType, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, blob
}

// TestBinarySolveBitIdenticalToJSON: the binary transport is a pure
// encoding change — the solution vector must match the JSON path bit
// for bit, since both run the identical warm-session solve.
func TestBinarySolveBitIdenticalToJSON(t *testing.T) {
	a, b := testSystem(12)
	c := newTestClient(t, server.Config{})
	c.upload("poisson", a)
	params := &solve.Params{Tol: 1e-10}

	var jres server.WireResult
	if status := c.post("/v1/solve", server.SolveRequest{
		Operator: "poisson", Method: "cg", RHS: b, Params: params,
	}, &jres); status != http.StatusOK {
		t.Fatalf("json solve status %d", status)
	}

	resp, blob := c.postBin("/v1/solve", binSolveBody("poisson", "cg", "", params, 0, b))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary solve status %d: %s", resp.StatusCode, blob)
	}
	if ct := resp.Header.Get("Content-Type"); ct != server.BinaryContentType {
		t.Fatalf("binary response content type %q", ct)
	}
	topCode, results := decodeBinResponse(t, blob)
	if topCode != "" || len(results) != 1 {
		t.Fatalf("top code %q, %d results", topCode, len(results))
	}
	r := results[0]
	if !r.converged || r.method != "cg" || r.code != "" {
		t.Fatalf("binary result: %+v", r)
	}
	if len(r.x) != len(jres.X) {
		t.Fatalf("x length %d vs json %d", len(r.x), len(jres.X))
	}
	for i := range r.x {
		if r.x[i] != jres.X[i] {
			t.Fatalf("x[%d] = %x over binary, %x over JSON — transports must be bit-identical",
				i, r.x[i], jres.X[i])
		}
	}
	if r.iterations != jres.Iterations || r.residualNorm != jres.ResidualNorm {
		t.Fatalf("metadata drifted: binary %+v vs json %+v", r, jres)
	}
}

// TestBinarySolveAffinityWarm: repeated binary solves over one client
// keep working (and stay correct) once the affinity cache is hot, and
// a re-upload under the same operator name invalidates it.
func TestBinarySolveAffinityWarm(t *testing.T) {
	a, b := testSystem(8)
	c := newTestClient(t, server.Config{})
	c.upload("poisson", a)
	body := binSolveBody("poisson", "cg", "", &solve.Params{Tol: 1e-10}, 0, b)

	var first []float64
	for i := 0; i < 5; i++ {
		resp, blob := c.postBin("/v1/solve", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d status %d: %s", i, resp.StatusCode, blob)
		}
		_, results := decodeBinResponse(t, blob)
		if i == 0 {
			first = results[0].x
			continue
		}
		for j := range first {
			if results[0].x[j] != first[j] {
				t.Fatalf("solve %d diverged from the first at %d", i, j)
			}
		}
	}
}

// TestBinaryBatch: a six-rhs cg batch over the binary transport
// converges every right-hand side and agrees with the JSON solve of each.
func TestBinaryBatch(t *testing.T) {
	a, b := testSystem(8)
	c := newTestClient(t, server.Config{})
	c.upload("poisson", a)
	n := len(b)
	B := make([][]float64, 6)
	for k := range B {
		col := make([]float64, n)
		for i := range col {
			col[i] = b[i] + float64(k)
		}
		B[k] = col
	}
	resp, blob := c.postBin("/v1/solve/batch", binSolveBody("poisson", "cg", "", &solve.Params{Tol: 1e-10}, 0, B...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, blob)
	}
	topCode, results := decodeBinResponse(t, blob)
	if topCode != "" || len(results) != len(B) {
		t.Fatalf("top code %q, %d results", topCode, len(results))
	}
	for k, r := range results {
		if !r.converged || r.code != "" {
			t.Fatalf("rhs %d: %+v", k, r)
		}
		var jres server.WireResult
		if status := c.post("/v1/solve", server.SolveRequest{
			Operator: "poisson", Method: "cg", RHS: B[k], Params: &solve.Params{Tol: 1e-10},
		}, &jres); status != http.StatusOK {
			t.Fatalf("json solve %d status %d", k, status)
		}
		diff := 0.0
		for i := range r.x {
			d := r.x[i] - jres.X[i]
			if d < 0 {
				d = -d
			}
			if d > diff {
				diff = d
			}
		}
		if diff > 1e-8 {
			t.Fatalf("rhs %d differs from json solve by %g", k, diff)
		}
	}
}

// TestBinaryErrors: protocol failures answer as ordinary JSON errors
// under the usual codes, and a malformed frame cannot take the
// handler down.
func TestBinaryErrors(t *testing.T) {
	a, b := testSystem(8)
	c := newTestClient(t, server.Config{})
	c.upload("poisson", a)

	// Unknown operator.
	resp, blob := c.postBin("/v1/solve", binSolveBody("nope", "cg", "", nil, 0, b))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown operator status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error content type %q", ct)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(blob, &er); err != nil || er.Code != "unknown_operator" {
		t.Fatalf("error body %s (err %v)", blob, err)
	}

	// Truncated frame.
	whole := binSolveBody("poisson", "cg", "", nil, 0, b)
	resp, blob = c.postBin("/v1/solve", whole[:len(whole)/2])
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated frame status %d: %s", resp.StatusCode, blob)
	}

	// Wrong rhs length.
	resp, _ = c.postBin("/v1/solve", binSolveBody("poisson", "cg", "", nil, 0, b[:4]))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short rhs status %d", resp.StatusCode)
	}

	// Wrong rhs length again on the now-warm affinity path.
	resp, _ = c.postBin("/v1/solve", binSolveBody("poisson", "cg", "", nil, 0, b))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid solve status %d", resp.StatusCode)
	}
	resp, _ = c.postBin("/v1/solve", binSolveBody("poisson", "cg", "", nil, 0, b[:4]))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short rhs on warm path status %d", resp.StatusCode)
	}

	// Not converged still ships the partial result, binary-framed.
	resp, blob = c.postBin("/v1/solve", binSolveBody("poisson", "cg", "", &solve.Params{Tol: 1e-14, MaxIter: 2}, 0, b))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("not-converged status %d", resp.StatusCode)
	}
	topCode, results := decodeBinResponse(t, blob)
	if topCode != "not_converged" || len(results) != 1 || results[0].converged {
		t.Fatalf("not-converged frame: code %q results %+v", topCode, results)
	}
}

// TestBinaryAffinityAcrossOperators: the binary shape cache is keyed by
// the request header, not by the connection, so one connection that
// round-robins four operators takes the warm path on every request —
// within the warm binary solve's allocation budget — and gets the bytes
// a cold server answers the same request with.
func TestBinaryAffinityAcrossOperators(t *testing.T) {
	srv, conn := server.New(server.Config{}), newBinConn()
	bodies := make([][]byte, 4)
	cold := make([][]byte, 4)
	for k := range bodies {
		name := fmt.Sprintf("op%d", k)
		a := sparse.Poisson2D(6 + k)
		b := make([]float64, a.Dim())
		for i := range b {
			b[i] = 1 + float64((i+k)%5)
		}
		bodies[k] = binSolveBody(name, "cg", "", &solve.Params{Tol: 1e-10}, 0, b)
		fresh := server.New(server.Config{})
		for _, s := range []*server.Server{srv, fresh} {
			if err := s.Preload(name, a); err != nil {
				t.Fatal(err)
			}
		}
		cold[k] = append([]byte(nil), newBinConn().solve(t, fresh, bodies[k])...)
	}
	for k := range bodies { // install the four shapes
		conn.solve(t, srv, bodies[k])
	}
	for k := range bodies {
		if got := conn.solve(t, srv, bodies[k]); !bytes.Equal(got, cold[k]) {
			t.Fatalf("op%d: the warm reply differs from the cold server's", k)
		}
	}
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		conn.solve(t, srv, bodies[k%4])
		k++
	})
	if allocs > 8 && !raceEnabled {
		t.Fatalf("alternating four operators: %v allocs a request, want <= 8 (the warm path)", allocs)
	}
}

// binConn is one client connection: a reused binary /v1/solve request
// and a reply buffer.
type binConn struct {
	req  *http.Request
	body replayBody
	w    captureWriter
}

func newBinConn() *binConn {
	c := &binConn{req: httptest.NewRequest("POST", "/v1/solve", nil), w: captureWriter{h: make(http.Header)}}
	c.req.Header.Set("Content-Type", server.BinaryContentType)
	c.req.Body = &c.body
	return c
}

// solve sends body through srv's handler stack, fails t unless it
// answers 200, and returns the reply, valid until the next call.
func (c *binConn) solve(t *testing.T, srv *server.Server, body []byte) []byte {
	t.Helper()
	c.body.Reset(body)
	c.req.ContentLength = int64(len(body))
	c.w.code, c.w.buf = 0, c.w.buf[:0]
	srv.ServeHTTP(&c.w, c.req)
	if c.w.code != http.StatusOK {
		t.Fatalf("status %d: %s", c.w.code, c.w.buf)
	}
	return c.w.buf
}

// captureWriter is a ResponseWriter that keeps the reply in a reused
// buffer.
type captureWriter struct {
	h    http.Header
	code int
	buf  []byte
}

func (c *captureWriter) Header() http.Header         { return c.h }
func (c *captureWriter) Write(p []byte) (int, error) { c.buf = append(c.buf, p...); return len(p), nil }
func (c *captureWriter) WriteHeader(code int)        { c.code = code }
