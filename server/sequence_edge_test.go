package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"vrcg/server"
	"vrcg/sparse"
)

// The sequence route's edges: a step that loses a race with close, a
// step that outlives its deadline, a step whose client goes away.

// eventually polls cond, which reports on server state no event
// announces, until it holds or the time runs out.
func eventually(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(within); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func createSequence(t *testing.T, srv http.Handler, body string) server.SequenceInfo {
	t.Helper()
	status, resp := serve(srv, "POST", "/v1/sequence", strings.NewReader(body))
	var info server.SequenceInfo
	if err := json.Unmarshal([]byte(resp), &info); err != nil || status != http.StatusCreated {
		t.Fatalf("create %s: %d %s", body, status, resp)
	}
	return info
}

// TestStepAfterCloseIsUnknownSequence: a step that found its sequence,
// then waited for a run slot while the sequence was closed and revived
// for another client, must not run on it. It answers 404, and the other
// client's sequence starts cold, on the stored operator's values.
func TestStepAfterCloseIsUnknownSequence(t *testing.T) {
	const create = `{"operator":"a","method":"cg","params":{"tol":1e-12}}`
	const firstStep = `{"rhs":[1,2,3,4,5,6,7,8]}`
	a := sparse.Poisson1D(8)
	stored := append([]float64(nil), a.Values()...)
	srv := server.New(server.Config{MaxConcurrent: 1})
	if err := srv.Preload("a", a); err != nil {
		t.Fatal(err)
	}
	first := createSequence(t, srv, create)

	release := srv.Occupy(1, 0) // a long solve holds the one run slot
	tripled := make([]float64, len(stored))
	for i, v := range stored {
		tripled[i] = 3 * v
	}
	type answer struct {
		status int
		body   string
	}
	queued := make(chan answer, 1)
	body := `{"rhs":[8,7,6,5,4,3,2,1],"vals":` + string(mustJSON(t, tripled)) + `}`
	go func() {
		status, resp := serve(srv, "POST", "/v1/sequence/"+first.ID+"/step", strings.NewReader(body))
		queued <- answer{status, resp}
	}()
	eventually(t, 30*time.Second, "the step waits for a run slot", func() bool { _, admitted := srv.Slots(); return admitted == 1 })

	if status, resp := serve(srv, "DELETE", "/v1/sequence/"+first.ID, nil); status != http.StatusOK {
		t.Fatalf("close: %d %s", status, resp)
	}
	second := createSequence(t, srv, create)
	if !second.Reused || second.ID == first.ID {
		t.Fatalf("second create did not revive the parked sequence under a new id: %+v", second)
	}
	release()

	got := <-queued
	if want := errBody("unknown_sequence", `server: unknown sequence: "`+first.ID+`"`); got.status != http.StatusNotFound || got.body != want {
		t.Errorf("the queued step: got %d %s, want 404 %s", got.status, got.body, want)
	}

	status, resp := serve(srv, "POST", "/v1/sequence/"+second.ID+"/step", strings.NewReader(firstStep))
	fresh := server.New(server.Config{})
	if err := fresh.Preload("a", sparse.Poisson1D(8)); err != nil {
		t.Fatal(err)
	}
	wantStatus, want := serve(fresh, "POST", "/v1/sequence/"+createSequence(t, fresh, create).ID+"/step", strings.NewReader(firstStep))
	if status != wantStatus || resp != want {
		t.Errorf("the revived sequence's first step:\n got %d %s\nwant %d %s", status, resp, wantStatus, want)
	}
	var step server.SequenceStepResponse
	if err := json.Unmarshal([]byte(resp), &step); err != nil || step.Step != 0 || step.Warm {
		t.Errorf("the revived sequence's first step is step=%d warm=%v (%v)", step.Step, step.Warm, err)
	}
	for i, v := range a.Values() {
		if v != stored[i] {
			t.Fatalf("stored operator value %d changed from %g to %g", i, stored[i], v)
		}
	}
}

// slowStepServer holds Poisson2D(m) and an open steepest-descent
// sequence against it with the given params: slow convergence at a
// known cost per iteration.
func slowStepServer(t *testing.T, cfg server.Config, m int, params string) (srv *server.Server, id string, stepBody func(timeoutMS int) []byte) {
	t.Helper()
	a := sparse.Poisson2D(m)
	srv = server.New(cfg)
	if err := srv.Preload("slow", a); err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, a.Dim())
	for i := range rhs {
		rhs[i] = 1 + float64(i%5)
	}
	id = createSequence(t, srv, `{"operator":"slow","method":"sd","params":`+params+`}`).ID
	return srv, id, func(timeoutMS int) []byte {
		return mustJSON(t, server.SequenceStepRequest{RHS: rhs, TimeoutMS: timeoutMS})
	}
}

// TestStepRunsUnderRequestDeadline: timeout_ms bounds a step's solve,
// not only its wait for a slot. 150 iterations on 40,000 unknowns are
// several milliseconds of memory traffic on any machine, so a 1 ms step
// answers 504 short of them — and still counts: the sequence goes on,
// warm, from the iterate it reached.
func TestStepRunsUnderRequestDeadline(t *testing.T) {
	srv, id, stepBody := slowStepServer(t, server.Config{}, 200, `{"tol":1e-12,"max_iter":150}`)
	status, resp := serve(srv, "POST", "/v1/sequence/"+id+"/step", bytes.NewReader(stepBody(1)))
	var refused server.ErrorResponse
	if err := json.Unmarshal([]byte(resp), &refused); err != nil || status != http.StatusGatewayTimeout || refused.Code != "deadline_exceeded" {
		t.Fatalf("step with timeout_ms 1: got %d %.200s, want 504 deadline_exceeded", status, resp)
	}
	if running, admitted := srv.Slots(); running != 0 || admitted != 0 {
		t.Errorf("the timed-out step left %d run slots and %d queue places held", running, admitted)
	}
	// A descheduled handler can find the millisecond gone before it has
	// its slot; then the step never started, and is not one.
	counted := 1
	if strings.Contains(refused.Error, "waiting for a solve slot") {
		counted = 0
	}

	status, resp = serve(srv, "POST", "/v1/sequence/"+id+"/step", bytes.NewReader(stepBody(0)))
	var next server.SequenceStepResponse
	if err := json.Unmarshal([]byte(resp), &next); err != nil || status != http.StatusUnprocessableEntity || next.Iterations != 150 {
		t.Fatalf("step after the timed-out one: %d %.200s, want 422 after its 150 iterations", status, resp)
	}
	if next.Step != counted || next.Warm != (counted == 1) {
		t.Errorf("step after the timed-out one is step=%d warm=%v, want step=%d warm=%v", next.Step, next.Warm, counted, counted == 1)
	}
	_, resp = serve(srv, "DELETE", "/v1/sequence/"+id, nil)
	var closed server.SequenceCloseResponse
	if err := json.Unmarshal([]byte(resp), &closed); err != nil || len(closed.Steps) != counted+1 || closed.Steps[0] > closed.Steps[counted] || (counted == 1 && closed.Steps[0] == 150) {
		t.Errorf("history %s: want the timed-out step cut short of the full one's 150 iterations", resp)
	}
}

// TestStepClientDisconnectFreesSlot: a client that goes away mid-step
// (of some 30,000 iterations, half a second) stops the solve at its next
// iteration; the run slot, the queue place and the goroutines come
// back, and the request is logged as a 499.
func TestStepClientDisconnectFreesSlot(t *testing.T) {
	srv, id, stepBody := slowStepServer(t, server.Config{MaxConcurrent: 1}, 100, `{"tol":1e-12}`)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	settled := func(base int) bool {
		client.CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine() <= base
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sequence/"+id+"/step", bytes.NewReader(stepBody(0)))
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			t.Error("the step answered before its client went away")
		}
	}()
	eventually(t, 30*time.Second, "the step holds the run slot", func() bool { running, _ := srv.Slots(); return running == 1 })
	cancel()
	<-gone
	eventually(t, 30*time.Second, "the abandoned step lets go of its slot", func() bool {
		running, admitted := srv.Slots()
		return running == 0 && admitted == 0
	})

	// The status is counted just after the handler has let go.
	eventually(t, 2*time.Second, "the abandoned step is counted once under 499", func() bool {
		_, metrics := serve(srv, "GET", "/metrics", nil)
		var snap struct {
			Statuses map[string]uint64 `json:"statuses"`
		}
		return json.Unmarshal([]byte(metrics), &snap) == nil && snap.Statuses["499"] == 1
	})
	eventually(t, 10*time.Second, "the goroutines are back to baseline", func() bool { return settled(base) })
}
