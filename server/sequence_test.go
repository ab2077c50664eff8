package server_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"vrcg/server"
	"vrcg/sparse"
)

// del issues a DELETE, decoding the response into out when non-nil.
func (c *testClient) del(path string, out any) int {
	c.t.Helper()
	req, err := http.NewRequest(http.MethodDelete, c.srv.URL+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

// uploadRect installs a rectangular operator.
func (c *testClient) uploadRect(name string, a *sparse.Rect) server.OperatorInfo {
	c.t.Helper()
	var info server.OperatorInfo
	status := c.post("/v1/operators", server.OperatorUpload{
		Name:   name,
		Matrix: *sparse.EncodeRect(a),
	}, &info)
	if status != http.StatusCreated {
		c.t.Fatalf("upload %q: status %d", name, status)
	}
	return info
}

// TestSequenceWarmStartOverHTTP: the serve-smoke shape — create a
// sequence, step the same rhs twice, the warm second step takes
// strictly fewer iterations, and close reports both counts.
func TestSequenceWarmStartOverHTTP(t *testing.T) {
	c := newTestClient(t, server.Config{})
	a, b := testSystem(12)
	c.upload("poisson", a)

	var info server.SequenceInfo
	if status := c.post("/v1/sequence", server.SequenceCreateRequest{
		Operator: "poisson", Method: "cg",
	}, &info); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	if info.Rows != a.Dim() || info.Cols != a.Dim() {
		t.Fatalf("sequence shape %dx%d, want %dx%d", info.Rows, info.Cols, a.Dim(), a.Dim())
	}

	var s1, s2 server.SequenceStepResponse
	if status := c.post("/v1/sequence/"+info.ID+"/step", server.SequenceStepRequest{RHS: b}, &s1); status != http.StatusOK {
		t.Fatalf("step 1: status %d", status)
	}
	if s1.Warm || s1.Step != 0 {
		t.Fatalf("step 1: warm=%v step=%d, want cold step 0", s1.Warm, s1.Step)
	}
	if status := c.post("/v1/sequence/"+info.ID+"/step", server.SequenceStepRequest{RHS: b}, &s2); status != http.StatusOK {
		t.Fatalf("step 2: status %d", status)
	}
	if !s2.Warm || s2.Step != 1 {
		t.Fatalf("step 2: warm=%v step=%d, want warm step 1", s2.Warm, s2.Step)
	}
	if s2.Iterations >= s1.Iterations {
		t.Fatalf("warm step took %d iterations, cold took %d", s2.Iterations, s1.Iterations)
	}

	var closed server.SequenceCloseResponse
	if status := c.del("/v1/sequence/"+info.ID, &closed); status != http.StatusOK {
		t.Fatalf("close: status %d", status)
	}
	if len(closed.Steps) != 2 || closed.Steps[0] != s1.Iterations || closed.Steps[1] != s2.Iterations {
		t.Fatalf("close steps %v, want [%d %d]", closed.Steps, s1.Iterations, s2.Iterations)
	}

	// Stepping a closed sequence is 404 unknown_sequence.
	if status := c.post("/v1/sequence/"+info.ID+"/step", server.SequenceStepRequest{RHS: b}, nil); status != http.StatusNotFound {
		t.Errorf("step after close: status %d, want 404", status)
	}

	// The sequence metrics landed: cold and warm histograms plus counters.
	var snap struct {
		Sequences *struct {
			Created        uint64                    `json:"created"`
			Closed         uint64                    `json:"closed"`
			Open           int                       `json:"open"`
			StepIterations map[string]map[string]any `json:"step_iterations"`
		} `json:"sequences"`
	}
	c.get("/metrics", &snap)
	if snap.Sequences == nil {
		t.Fatal("metrics missing sequences block")
	}
	if snap.Sequences.Created != 1 || snap.Sequences.Closed != 1 || snap.Sequences.Open != 0 {
		t.Errorf("sequence counters created=%d closed=%d open=%d, want 1/1/0",
			snap.Sequences.Created, snap.Sequences.Closed, snap.Sequences.Open)
	}
	if _, ok := snap.Sequences.StepIterations["cold"]; !ok {
		t.Error("metrics missing cold step-iterations histogram")
	}
	if _, ok := snap.Sequences.StepIterations["warm"]; !ok {
		t.Error("metrics missing warm step-iterations histogram")
	}
}

// TestSequenceReuseAndIsolation: closed sequences revive from the free
// list — value-mutated ones with the stored values restored — and their
// private values never leak into other requests against the same stored
// operator, nor into the next incarnation.
func TestSequenceReuseAndIsolation(t *testing.T) {
	c := newTestClient(t, server.Config{})
	a, b := testSystem(8)
	c.upload("poisson", a)

	var s1 server.SequenceInfo
	c.post("/v1/sequence", server.SequenceCreateRequest{Operator: "poisson", Method: "cg"}, &s1)
	var step server.SequenceStepResponse
	c.post("/v1/sequence/"+s1.ID+"/step", server.SequenceStepRequest{RHS: b}, &step)
	baseline := append([]float64(nil), step.X...)
	c.del("/v1/sequence/"+s1.ID, nil)

	// Same shape again: revived from the free list, cold, empty history.
	var s2 server.SequenceInfo
	c.post("/v1/sequence", server.SequenceCreateRequest{Operator: "poisson", Method: "cg"}, &s2)
	if !s2.Reused {
		t.Error("clean same-shape sequence was not reused")
	}
	var step2 server.SequenceStepResponse
	c.post("/v1/sequence/"+s2.ID+"/step", server.SequenceStepRequest{RHS: b}, &step2)
	if step2.Warm || step2.Step != 0 {
		t.Errorf("revived sequence first step: warm=%v step=%d, want cold step 0", step2.Warm, step2.Step)
	}

	// Mutate its operator (A*2 halves x) — the sequence sees the new
	// values, the shared stored operator must not.
	factor := 2.0
	var step3 server.SequenceStepResponse
	c.post("/v1/sequence/"+s2.ID+"/step", server.SequenceStepRequest{RHS: b, Rescale: &factor}, &step3)
	for i := range baseline {
		if diff := step3.X[i] - baseline[i]/2; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("rescaled sequence x[%d] = %g, want %g", i, step3.X[i], baseline[i]/2)
		}
	}
	var plain server.WireResult
	c.post("/v1/solve", server.SolveRequest{Operator: "poisson", Method: "cg", RHS: b}, &plain)
	for i := range baseline {
		if diff := plain.X[i] - baseline[i]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("shared operator changed: x[%d] = %g, want %g", i, plain.X[i], baseline[i])
		}
	}
	c.del("/v1/sequence/"+s2.ID, nil)

	// The value-mutated sequence is revived too, but with the stored
	// operator's values back in place: its first step is the clean
	// baseline again, bit for bit, not the rescaled system's.
	var s3 server.SequenceInfo
	c.post("/v1/sequence", server.SequenceCreateRequest{Operator: "poisson", Method: "cg"}, &s3)
	if !s3.Reused {
		t.Error("value-mutated sequence was not revived from the free list")
	}
	var step4 server.SequenceStepResponse
	c.post("/v1/sequence/"+s3.ID+"/step", server.SequenceStepRequest{RHS: b}, &step4)
	if step4.Warm || step4.Step != 0 {
		t.Errorf("revived sequence first step: warm=%v step=%d, want cold step 0", step4.Warm, step4.Step)
	}
	for i := range baseline {
		if math.Float64bits(step4.X[i]) != math.Float64bits(baseline[i]) {
			t.Fatalf("revived sequence kept mutated values: x[%d] = %g, want %g", i, step4.X[i], baseline[i])
		}
	}
}

// TestSequenceRectangularLSQR: a rectangular operator served end to end
// — upload via the general wire path, lsqr sequence with per-step value
// updates, square-only methods rejected with unsupported_operator.
func TestSequenceRectangularLSQR(t *testing.T) {
	c := newTestClient(t, server.Config{})
	rng := rand.New(rand.NewSource(7))
	rows, cols := 40, 6
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	a := sparse.RectFromDense(rows, cols, data)
	info := c.uploadRect("jacobian", a)
	if info.Rows != rows || info.Cols != cols || info.N != rows {
		t.Fatalf("uploaded shape rows=%d cols=%d n=%d, want %d/%d/%d", info.Rows, info.Cols, info.N, rows, cols, rows)
	}

	// cg cannot run on a rectangular operator: 422 unsupported_operator.
	resp, err := http.Post(c.srv.URL+"/v1/solve", "application/json",
		bytes.NewReader(mustJSON(t, server.SolveRequest{Operator: "jacobian", Method: "cg", RHS: make([]float64, rows)})))
	if err != nil {
		t.Fatal(err)
	}
	var e server.ErrorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || e.Code != "unsupported_operator" {
		t.Fatalf("cg on rectangular: status %d code %q, want 422 unsupported_operator", resp.StatusCode, e.Code)
	}

	// lsqr runs, and warm steps with slightly perturbed values converge
	// faster than the cold start.
	var seq server.SequenceInfo
	if status := c.post("/v1/sequence", server.SequenceCreateRequest{Operator: "jacobian", Method: "lsqr"}, &seq); status != http.StatusCreated {
		t.Fatalf("lsqr sequence create: status %d", status)
	}
	xTrue := make([]float64, cols)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, rows)
	a.MulVec(b, xTrue)

	var cold server.SequenceStepResponse
	c.post("/v1/sequence/"+seq.ID+"/step", server.SequenceStepRequest{RHS: b}, &cold)
	if len(cold.X) != cols {
		t.Fatalf("lsqr solution length %d, want %d", len(cold.X), cols)
	}

	vals := append([]float64(nil), a.Values()...)
	for i := range vals {
		vals[i] *= 1 + 1e-10*rng.NormFloat64()
	}
	var warm server.SequenceStepResponse
	c.post("/v1/sequence/"+seq.ID+"/step", server.SequenceStepRequest{RHS: b, Vals: vals}, &warm)
	if !warm.Warm {
		t.Fatal("second rectangular step did not warm-start")
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("warm lsqr step took %d iterations, cold took %d", warm.Iterations, cold.Iterations)
	}
	c.del("/v1/sequence/"+seq.ID, nil)
}

// TestSequenceCapAndValidation: the open-sequence cap answers 429, and
// protocol errors map to their codes.
func TestSequenceCapAndValidation(t *testing.T) {
	c := newTestClient(t, server.Config{MaxSequences: 2})
	a, b := testSystem(6)
	c.upload("poisson", a)

	var s1, s2 server.SequenceInfo
	c.post("/v1/sequence", server.SequenceCreateRequest{Operator: "poisson", Method: "cg"}, &s1)
	c.post("/v1/sequence", server.SequenceCreateRequest{Operator: "poisson", Method: "cg"}, &s2)
	var e server.ErrorResponse
	if status := c.post("/v1/sequence", server.SequenceCreateRequest{Operator: "poisson", Method: "cg"}, &e); status != http.StatusTooManyRequests {
		t.Fatalf("third create: status %d, want 429", status)
	}
	if e.Code != "too_many_sequences" {
		t.Errorf("third create code %q, want too_many_sequences", e.Code)
	}

	// Unknown operator and unknown sequence id.
	if status := c.post("/v1/sequence", server.SequenceCreateRequest{Operator: "nope", Method: "cg"}, nil); status != http.StatusNotFound {
		t.Errorf("unknown operator create: status %d, want 404", status)
	}
	if status := c.post("/v1/sequence/seq-999/step", server.SequenceStepRequest{RHS: b}, nil); status != http.StatusNotFound {
		t.Errorf("unknown sequence step: status %d, want 404", status)
	}
	if status := c.del("/v1/sequence/seq-999", nil); status != http.StatusNotFound {
		t.Errorf("unknown sequence close: status %d, want 404", status)
	}

	// Wrong rhs length and wrong vals length.
	if status := c.post("/v1/sequence/"+s1.ID+"/step", server.SequenceStepRequest{RHS: b[:3]}, nil); status != http.StatusBadRequest {
		t.Errorf("short rhs: status %d, want 400", status)
	}
	if status := c.post("/v1/sequence/"+s1.ID+"/step", server.SequenceStepRequest{RHS: b, Vals: []float64{1}}, nil); status != http.StatusBadRequest {
		t.Errorf("short vals: status %d, want 400", status)
	}

	// Closing frees capacity.
	c.del("/v1/sequence/"+s1.ID, nil)
	if status := c.post("/v1/sequence", server.SequenceCreateRequest{Operator: "poisson", Method: "cg"}, nil); status != http.StatusCreated {
		t.Errorf("create after close: status %d, want 201", status)
	}
}

// TestSequenceBadRescaleRefused: a rescale factor that no later step
// could undo — zero, or one that overflows a stored value — answers 400
// and leaves the operator as it was, so the next plain step converges.
func TestSequenceBadRescaleRefused(t *testing.T) {
	c := newTestClient(t, server.Config{})
	a, b := testSystem(8)
	c.upload("poisson", a)
	var info server.SequenceInfo
	if status := c.post("/v1/sequence", server.SequenceCreateRequest{Operator: "poisson", Method: "cg"}, &info); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	for _, f := range []float64{1e308, -1e308, 0} {
		var e server.ErrorResponse
		if status := c.post("/v1/sequence/"+info.ID+"/step", server.SequenceStepRequest{RHS: b, Rescale: &f}, &e); status != http.StatusBadRequest || e.Code != "bad_request" {
			t.Errorf("rescale %v: status %d code %q, want 400 bad_request", f, status, e.Code)
		}
		var res server.SequenceStepResponse
		if status := c.post("/v1/sequence/"+info.ID+"/step", server.SequenceStepRequest{RHS: b}, &res); status != http.StatusOK || !res.Converged {
			t.Errorf("plain step after rescale %v: status %d converged %v, want 200 and converged", f, status, res.Converged)
		}
	}
}

// TestMethodsReportCaps: /v1/methods carries the capability flags the
// CLI and clients key their vocabulary off.
func TestMethodsReportCaps(t *testing.T) {
	c := newTestClient(t, server.Config{})
	var list server.MethodList
	c.get("/v1/methods", &list)
	caps := map[string][2]bool{}
	for _, m := range list.Methods {
		caps[m.Name] = [2]bool{m.Nonsymmetric, m.Rectangular}
	}
	for name, want := range map[string][2]bool{
		"cg":       {false, false},
		"bicgstab": {true, false},
		"gmres":    {true, false},
		"cgnr":     {true, true},
		"lsqr":     {true, true},
	} {
		got, ok := caps[name]
		if !ok {
			t.Errorf("method %q missing from /v1/methods", name)
			continue
		}
		if got != want {
			t.Errorf("%s caps nonsymmetric/rectangular = %v, want %v", name, got, want)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSequenceRevivedAfterValueUpdates: the traffic the free list is
// for — every step of an ICP-shaped sequence replaces the operator's
// values — parks the sequence too: close puts the stored values back,
// so the next same-shape create is a revival, and the revived
// sequence's first step is, bit for bit, a fresh sequence's first step.
func TestSequenceRevivedAfterValueUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := make([]float64, 40*6)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	rect := sparse.RectFromDense(40, 6, data)
	square, _ := testSystem(8)
	for _, tc := range []struct {
		name   string
		upload func(c *testClient)
		create server.SequenceCreateRequest
		vals   []float64
		rows   int
	}{
		{"lsqr on a Rect", func(c *testClient) { c.uploadRect("op", rect) },
			server.SequenceCreateRequest{Operator: "op", Method: "lsqr"}, rect.Values(), 40},
		{"pcg+ic0 on a CSR", func(c *testClient) { c.upload("op", square) },
			server.SequenceCreateRequest{Operator: "op", Method: "pcg", Precond: "ic0"}, square.Values(), square.Dim()},
	} {
		c := newTestClient(t, server.Config{})
		tc.upload(c)
		b := make([]float64, tc.rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}

		var first server.SequenceInfo
		c.post("/v1/sequence", tc.create, &first)
		if first.Reused {
			t.Fatalf("%s: the first sequence of its shape reports reused", tc.name)
		}
		var fresh server.SequenceStepResponse
		c.post("/v1/sequence/"+first.ID+"/step", server.SequenceStepRequest{RHS: b}, &fresh)

		// Dirty it both ways: replaced values, then a rescale on top.
		moved := append([]float64(nil), tc.vals...)
		for i := range moved {
			moved[i] *= 1 + 0.05*rng.Float64()
		}
		factor := 3.0
		var dirty server.SequenceStepResponse
		for _, req := range []server.SequenceStepRequest{{RHS: b, Vals: moved}, {RHS: b, Rescale: &factor}, {RHS: b, Vals: moved}} {
			if status := c.post("/v1/sequence/"+first.ID+"/step", req, &dirty); status != http.StatusOK {
				t.Fatalf("%s: dirty step: status %d", tc.name, status)
			}
		}
		c.del("/v1/sequence/"+first.ID, nil)

		var revived server.SequenceInfo
		c.post("/v1/sequence", tc.create, &revived)
		if !revived.Reused {
			t.Fatalf("%s: a sequence closed after value updates was not revived", tc.name)
		}
		var again server.SequenceStepResponse
		c.post("/v1/sequence/"+revived.ID+"/step", server.SequenceStepRequest{RHS: b}, &again)
		if again.Warm || again.Step != 0 || again.Iterations != fresh.Iterations || len(again.X) != len(fresh.X) {
			t.Fatalf("%s: revived first step warm=%v step=%d iterations=%d, fresh took cold step 0 in %d",
				tc.name, again.Warm, again.Step, again.Iterations, fresh.Iterations)
		}
		for i := range fresh.X {
			if math.Float64bits(again.X[i]) != math.Float64bits(fresh.X[i]) {
				t.Fatalf("%s: revived first step x[%d] = %g, a fresh sequence gives %g", tc.name, i, again.X[i], fresh.X[i])
			}
		}
		var closed server.SequenceCloseResponse
		c.del("/v1/sequence/"+revived.ID, &closed)
		if len(closed.Steps) != 1 {
			t.Errorf("%s: revived sequence reports %d steps, want its own 1", tc.name, len(closed.Steps))
		}
	}
}

// TestSequenceHistoryBoundsRevival: a revived sequence keeps the step
// history of every earlier incarnation, so one whose history has passed
// 4096 entries is dropped at close instead of parked, and the next
// create builds a fresh one.
func TestSequenceHistoryBoundsRevival(t *testing.T) {
	c := newTestClient(t, server.Config{})
	a, b := testSystem(2)
	c.upload("poisson", a)
	create := server.SequenceCreateRequest{Operator: "poisson", Method: "cg"}
	stepBody := mustJSON(t, server.SequenceStepRequest{RHS: b})
	run := func(steps int) (reused bool) {
		t.Helper()
		var info server.SequenceInfo
		c.post("/v1/sequence", create, &info)
		for i := 0; i < steps; i++ {
			rec := httptest.NewRecorder()
			c.srv.Config.Handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sequence/"+info.ID+"/step", bytes.NewReader(stepBody)))
			if rec.Code != http.StatusOK {
				t.Fatalf("step %d: status %d", i, rec.Code)
			}
		}
		c.del("/v1/sequence/"+info.ID, nil)
		return info.Reused
	}
	run(4096)
	if !run(1) {
		t.Error("a sequence with exactly 4096 steps of history was not revived")
	}
	if run(1) {
		t.Error("a sequence with 4097 steps of history was revived")
	}
	if !run(0) {
		t.Error("the fresh sequence built after the drop was not parked in turn")
	}
}
