package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"vrcg/server"
	"vrcg/sparse"
)

// The client's binary framing against the real handler, in-process: a
// request frame built here is accepted by server.New's handler, and the
// response frame it writes decodes here into solutions that pass the
// client-side residual check. Single solve and batch, over a real
// socket (httptest) and through the sink writer the replays use.
func TestBinaryFrameRoundTrip(t *testing.T) {
	a := sparse.Poisson2D(8)
	rhs := genRHS(3, a.Dim(), 4)
	srv := server.New(server.Config{})
	if err := srv.Preload("p8", a); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &conn{hc: newHTTPClient(1), base: ts.URL}
	defer c.hc.CloseIdleConnections()
	scratch := make([]float64, a.Dim())

	for _, tc := range []struct {
		path string
		rhs  [][]float64
	}{{"/v1/solve", rhs[:1]}, {"/v1/solve/batch", rhs}} {
		if _, err := c.binarySolve(tc.path, "p8", tc.rhs); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if err := c.verify(a, tc.rhs, scratch); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		for i, r := range c.results {
			if r.code != "" || r.iterations == 0 || len(r.x) != a.Dim() {
				t.Errorf("%s result %d: code %q iterations %d len(x) %d", tc.path, i, r.code, r.iterations, len(r.x))
			}
		}

		// The same bytes through the in-process path.
		var out sink
		req := wireReq{method: http.MethodPost, path: tc.path, contentType: server.BinaryContentType,
			body: encodeSolveFrame(nil, "p8", "cg", solveParams, tc.rhs)}
		if _, err := serveInProcess(srv, req, &out, true); err != nil {
			t.Fatal(err)
		}
		res, err := decodeSolveFrame(out.body.Bytes(), nil)
		if err != nil || len(res) != len(tc.rhs) {
			t.Fatalf("%s in-process: %d results, err %v", tc.path, len(res), err)
		}
	}

	// A wrong answer must not verify, and a protocol failure must not decode.
	c.results[0].x[0] += 1
	if err := c.verify(a, rhs, scratch); err == nil {
		t.Error("a perturbed solution passed the residual check")
	}
	if _, err := c.binarySolve("/v1/solve", "no-such-operator", rhs[:1]); err == nil {
		t.Error("a request for an unknown operator did not fail")
	}
	if _, err := decodeSolveFrame([]byte{1, 2, 3}, nil); err == nil {
		t.Error("a truncated frame decoded")
	}
}

// The hand-rolled step body is JSON the step handler accepts, and the
// registration it drives recovers the known pose through the server.
func TestStepJSONDrivesARegistration(t *testing.T) {
	sc := genScene(5, 300)
	g := newRegistration(sc, genMisalignment(5, 0))
	srv := server.New(server.Config{})
	if err := srv.Preload(icpOperator, jacobian(g.vals)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	s := &serveICP{seed: 5, sc: sc, serveBase: serveBase{conns: []*conn{{hc: newHTTPClient(1), base: ts.URL}}}}
	defer s.conns[0].hc.CloseIdleConnections()
	s.clients = make([]icpClient, 1)
	for step := 0; step < icpSteps; step++ {
		if _, err := s.op(0, step); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if s.clients[0].seqID != "" {
		t.Error("the sequence was not closed after the last step")
	}
	if e := s.clients[0].reg.poseError(); e > icpPoseTol {
		t.Errorf("pose error %g after %d steps, limit %g", e, icpSteps, icpPoseTol)
	}
	if n := len(s.clients[0].iters); n != icpSteps {
		t.Errorf("%d step iteration counts recorded, want %d", n, icpSteps)
	}
}
