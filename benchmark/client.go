package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"vrcg/cluster/wire"
	"vrcg/server"
	"vrcg/sparse"
)

// wireReq is one HTTP request as bytes, so the same request can go to
// the child over loopback and to an in-process handler.
type wireReq struct {
	method, path, contentType string
	body                      []byte
}

// encodeSolveFrame appends the binary /v1/solve(/batch) request frame
// (server/binary.go documents the layout) to dst.
func encodeSolveFrame(dst []byte, operator, method, params string, rhs [][]float64) []byte {
	e := wire.Enc{B: dst}
	e.U8(1)
	e.Str(operator)
	e.Str(method)
	e.Str("") // precond
	e.Str(params)
	e.U32(0) // server-default timeout
	e.U32(uint32(len(rhs)))
	for _, b := range rhs {
		e.F64s(b)
	}
	return e.B
}

// binResult is one decoded result section of a binary response.
type binResult struct {
	code       string
	converged  bool
	iterations int
	x          []float64
}

// decodeSolveFrame decodes a whole binary response, every x included,
// reusing res (and each res[i].x) across calls.
func decodeSolveFrame(body []byte, res []binResult) ([]binResult, error) {
	d := wire.NewDec(body)
	if v := d.U8(); v != 1 && d.Err() == nil {
		return res, fmt.Errorf("binary response version %d", v)
	}
	top := d.Str()
	n := int(d.U32())
	if d.Err() != nil || n > len(body) {
		return res, fmt.Errorf("malformed binary response header: %v", d.Err())
	}
	for len(res) < n {
		res = append(res, binResult{})
	}
	res = res[:n]
	for i := range res {
		r := &res[i]
		r.code = d.Str()
		_ = d.Str() // method
		r.converged = d.U8() == 1
		r.iterations = int(d.U32())
		_ = d.F64() // residual_norm
		_ = d.F64() // true_residual_norm
		r.x = d.F64s(r.x)
	}
	if err := d.Err(); err != nil {
		return res, fmt.Errorf("malformed binary response: %w", err)
	}
	if top != "" {
		return res, fmt.Errorf("server reported %q", top)
	}
	return res, nil
}

// appendStepJSON appends a SequenceStepRequest body. It formats floats
// with strconv directly: the generator shares two cores with the server
// under test, and reflection-driven encoding of 35000 floats per step
// would take a visible share of them.
func appendStepJSON(dst []byte, rhs, vals []float64) []byte {
	floats := func(dst []byte, key string, v []float64) []byte {
		dst = append(dst, '"')
		dst = append(dst, key...)
		dst = append(dst, `":[`...)
		for i, f := range v {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		}
		return append(dst, ']')
	}
	dst = append(dst, '{')
	dst = floats(dst, "rhs", rhs)
	dst = append(dst, ',')
	dst = floats(dst, "vals", vals)
	return append(dst, '}')
}

// conn is one client goroutine's connection-side state: the shared
// HTTP client plus reusable buffers, so steady-state requests allocate
// little in the generator.
type conn struct {
	hc   *http.Client
	base string
	tr   *tracer

	reqBuf  []byte
	respBuf []byte
	results []binResult
}

// newHTTPClient returns a client holding at most nconn kept-alive
// connections to one host — the benchmark's "connections".
func newHTTPClient(nconn int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nconn,
		MaxIdleConnsPerHost: nconn,
		DisableCompression:  true,
	}}
}

// do sends the request and reads the whole response body into the
// conn's buffer (valid until the next call).
func (c *conn) do(r wireReq) (status int, body []byte, err error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, rd)
	if err != nil {
		return 0, nil, err
	}
	if r.contentType != "" {
		req.Header.Set("Content-Type", r.contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf := bytes.NewBuffer(c.respBuf[:0])
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	c.respBuf = buf.Bytes()
	return resp.StatusCode, c.respBuf, nil
}

// httpError turns a non-2xx response into an error carrying the
// server's stable error code.
func httpError(r wireReq, status int, body []byte) error {
	var e server.ErrorResponse
	_ = json.Unmarshal(body, &e) // best effort: the status alone is reported otherwise
	return fmt.Errorf("%s %s: HTTP %d %s %s", r.method, r.path, status, e.Code, e.Error)
}

// postJSON sends body as JSON and decodes a 2xx response into out.
func (c *conn) postJSON(method, path string, body, out any) error {
	r := wireReq{method: method, path: path}
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		r.body, r.contentType = blob, "application/json"
	}
	status, resp, err := c.do(r)
	if err != nil {
		return err
	}
	if status >= 300 {
		return httpError(r, status, resp)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(resp, out)
}

// upload stores m under name. An operator already resident under that
// name is an error: every boot starts from an empty store.
func (c *conn) upload(name string, m *sparse.WireMatrix) error {
	return c.postJSON(http.MethodPost, "/v1/operators", server.OperatorUpload{Name: name, Matrix: *m}, nil)
}

var errUnverified = errors.New("solution fails the client-side residual check")

// residualOK reports ||b - A x|| <= tol ||b|| with scratch of length
// len(b). The slack factor covers the gap between the solver's
// recurrence residual, which met tol, and the true one recomputed here.
func residualOK(a sparse.Matrix, x, b, scratch []float64, tol float64) bool {
	if len(x) != a.Dim() || len(b) != len(scratch) {
		return false
	}
	a.MulVec(scratch, x)
	rr, bb := 0.0, 0.0
	for i, v := range b {
		d := v - scratch[i]
		rr += d * d
		bb += v * v
	}
	const slack = 10
	return !math.IsNaN(rr) && math.Sqrt(rr) <= slack*tol*math.Sqrt(bb)
}

// lsqOK is the least-squares counterpart, for a rows x 6 system stored
// row-major in vals. LSQR stops on whichever comes first: the residual
// ||b - J x|| <= tol ||b|| (a consistent system, as ICP's becomes) or
// the gradient ||J^T (b - J x)|| <= tol ||J^T b||; either is accepted,
// recomputed from the shipped system. The scene has unit scale, so a
// gradient below 1e-12 outright is rounding, whatever b was.
func lsqOK(vals, rhs, x []float64, tol float64) bool {
	if len(x) != 6 {
		return false
	}
	var g, g0 [6]float64
	rr, bb := 0.0, 0.0
	for i, b := range rhs {
		row := vals[6*i : 6*i+6]
		r := b
		for j, v := range row {
			r -= v * x[j]
		}
		rr += r * r
		bb += b * b
		for j, v := range row {
			g[j] += v * r
			g0[j] += v * b
		}
	}
	gg, gg0 := 0.0, 0.0
	for j := range g {
		gg += g[j] * g[j]
		gg0 += g0[j] * g0[j]
	}
	const slack, gradSlack = 10, 1e3 // LSQR stops on running estimates of both norms
	if math.IsNaN(rr) || math.IsNaN(gg) {
		return false
	}
	return math.Sqrt(rr) <= slack*tol*math.Sqrt(bb) ||
		math.Sqrt(gg) <= gradSlack*tol*math.Sqrt(gg0) || math.Sqrt(gg) <= 1e-12
}
