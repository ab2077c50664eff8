package server_test

import (
	"math"
	"net/http"
	"strings"
	"testing"

	"vrcg/server"
	"vrcg/sparse"
)

// A right-hand side carrying NaN or ±Inf — which only the binary frame
// can spell — is a 400 bad_request naming the value, on the cold path
// and on the connection's affinity-warm one; the next well-formed
// request solves, and nothing stays occupied or pinned.
func TestNonFiniteRHSRejected(t *testing.T) {
	a, good := testSystem(3)
	c := newTestClient(t, server.Config{MaxOperators: 1})
	c.upload("poisson", a)
	with := func(i int, x float64) []float64 {
		b := append([]float64(nil), good...)
		b[i] = x
		return b
	}
	last := len(good) - 1
	for _, tc := range []struct {
		path string
		rhs  [][]float64
		want string
	}{
		{"/v1/solve", [][]float64{with(0, math.NaN())}, "rhs 0 has a non-finite value at index 0"},
		{"/v1/solve", [][]float64{with(last, math.Inf(1))}, "rhs 0 has a non-finite value at index 8"},
		{"/v1/solve/batch", [][]float64{good, with(3, math.Inf(-1)), good}, "rhs 1 has a non-finite value at index 3"},
		{"/v1/solve/batch", [][]float64{good, good, with(last, math.Float64frombits(0x7FF0000000000001))}, "rhs 2 has a non-finite value at index 8"},
	} {
		for _, pass := range []string{"cold", "warm"} {
			resp, blob := c.postBin(tc.path, binSolveBody("poisson", "cg", "", nil, 0, tc.rhs...))
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(blob), `"code":"bad_request"`) || !strings.Contains(string(blob), tc.want) {
				t.Errorf("%s %s: status %d body %s, want 400 bad_request %q", tc.path, pass, resp.StatusCode, blob, tc.want)
			}
			if resp, blob := c.postBin(tc.path, binSolveBody("poisson", "cg", "", nil, 0, good)); resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s: the next request: status %d body %s", tc.path, pass, resp.StatusCode, blob)
			}
		}
	}
	if running, admitted := c.server.Slots(); running != 0 || admitted != 0 {
		t.Errorf("slots held after refused requests: %d running, %d admitted", running, admitted)
	}
	// A pin left behind would keep the operator resident past capacity.
	c.upload("other", a)
	if resp, blob := c.postBin("/v1/solve", binSolveBody("poisson", "cg", "", nil, 0, good)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("the refused requests' operator was not evicted: status %d body %s", resp.StatusCode, blob)
	}
}

// An uploaded operator carrying NaN or ±Inf — which a MatrixMarket
// document can spell, and summed coo duplicates can overflow into — is a
// 400 bad_request naming the stored entry, on the local store's route and
// on the fleet's; nothing is stored or placed under the name, which a
// well-formed upload then takes.
func TestNonFiniteOperatorRejected(t *testing.T) {
	a, _ := testSystem(3)
	mm := func(v string) sparse.WireMatrix {
		return sparse.WireMatrix{Format: sparse.WireMatrixMarket,
			MatrixMarket: "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 2\n1 2 " + v + "\n2 2 2\n"}
	}
	overflow := sparse.WireMatrix{Format: sparse.WireCOO, N: 2,
		Rows: []int{0, 1, 1}, Cols: []int{0, 1, 1}, Vals: []float64{1, 1e308, 1e308}}
	rect := sparse.WireMatrix{Format: sparse.WireCOO, NRows: 3, NCols: 2,
		Rows: []int{0, 1, 2, 2}, Cols: []int{0, 1, 1, 1}, Vals: []float64{1, 1, -1e308, -1e308}}
	local := newTestClient(t, server.Config{})
	fleet := newClusterClient(t, 1)
	for _, tc := range []struct {
		c      *testClient
		path   string
		matrix sparse.WireMatrix
		want   string
	}{
		{local, "/v1/operators", mm("nan"), "stored entry 1"},
		{local, "/v1/operators", mm("-Inf"), "stored entry 1"},
		{local, "/v1/operators", overflow, "stored entry 1"},
		{local, "/v1/operators", rect, "stored entry 2"},
		{fleet, "/v1/cluster/operators", mm("NaN"), "stored entry 1"},
		{fleet, "/v1/cluster/operators", overflow, "stored entry 1"},
	} {
		var er server.ErrorResponse
		status := tc.c.post(tc.path, server.OperatorUpload{Name: "op", Matrix: tc.matrix}, &er)
		if status != http.StatusBadRequest || er.Code != "bad_request" || !strings.Contains(er.Error, "non-finite value at "+tc.want) {
			t.Errorf("%s %s: status %d %+v, want 400 bad_request naming %s", tc.path, tc.matrix.Format, status, er, tc.want)
		}
	}
	for _, tc := range []struct {
		c    *testClient
		path string
	}{{local, "/v1/operators"}, {fleet, "/v1/cluster/operators"}} {
		if status := tc.c.post(tc.path, server.OperatorUpload{Name: "op", Matrix: *sparse.EncodeCSR(a)}, nil); status != http.StatusCreated {
			t.Errorf("%s: well-formed upload after the refused ones: status %d", tc.path, status)
		}
	}
}
