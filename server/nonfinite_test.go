package server_test

import (
	"math"
	"net/http"
	"strings"
	"testing"

	"vrcg/server"
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
