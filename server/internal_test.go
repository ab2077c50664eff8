package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vrcg/cluster/wire"
	"vrcg/solve"
	"vrcg/sparse"
)

// TestBackpressure429 pins the admission queue full and proves the next
// solve request is rejected immediately — deterministically, without
// racing real solves against each other.
func TestBackpressure429(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	if err := s.Preload("a", sparse.Poisson1D(8)); err != nil {
		t.Fatal(err)
	}
	// Occupy the one running slot and the one waiting slot.
	s.admit <- struct{}{}
	s.admit <- struct{}{}
	defer func() { <-s.admit; <-s.admit }()

	body := `{"operator":"a","method":"cg","rhs":[1,1,1,1,1,1,1,1]}`
	req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), codeQueueFull) {
		t.Fatalf("want %q in body, got %s", codeQueueFull, rec.Body.String())
	}
	snap := s.met.snapshot()
	if snap.QueueRejects != 1 {
		t.Fatalf("queue_rejects = %d, want 1", snap.QueueRejects)
	}

	// Free the queue: the same request now succeeds.
	<-s.admit
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body)))
	s.admit <- struct{}{} // restore for the deferred drain
	if rec.Code != http.StatusOK {
		t.Fatalf("after drain: want 200, got %d: %s", rec.Code, rec.Body.String())
	}
}

// TestShutdownRefusesNewWork proves the closed flag answers everything
// with 503 and Shutdown returns once nothing is in flight.
func TestShutdownRefusesNewWork(t *testing.T) {
	s := New(Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("want 503 after shutdown, got %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), codeShuttingDown) {
		t.Fatalf("want %q in body, got %s", codeShuttingDown, rec.Body.String())
	}
}

// TestMetricsRouteLabelBounded: unknown request paths share one
// metrics bucket, so path-spraying cannot grow the maps without bound.
func TestMetricsRouteLabelBounded(t *testing.T) {
	s := New(Config{})
	for _, p := range []string{"/a", "/b", "/v1/zzz", "/healthz"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
	}
	snap := s.met.snapshot()
	if snap.Requests["other"] != 3 || snap.Requests["/healthz"] != 1 {
		t.Fatalf("route buckets: %v", snap.Requests)
	}
	if len(snap.Requests) != 2 {
		t.Fatalf("metrics grew a key per unknown path: %v", snap.Requests)
	}
}

// TestShutdownWaitsForInflight: a request that entered before Shutdown
// is drained; Shutdown does not return while it runs.
func TestShutdownWaitsForInflight(t *testing.T) {
	s := New(Config{})
	if !s.enter() {
		t.Fatal("enter refused on an open server")
	}
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	select {
	case err := <-done:
		t.Fatalf("Shutdown returned with a request in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.leave()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSessionPoolsRecreateAfterDrop: dropping an operator must purge
// its keys from the eviction order, or a pool rebuilt later under the
// same key gets evicted by its own stale entry.
func TestSessionPoolsRecreateAfterDrop(t *testing.T) {
	sp := newSessionPools(nil, 2)
	m := sparse.Poisson1D(8)
	opA := &storedOperator{info: OperatorInfo{ID: "a", N: 8}, matrix: m, gen: 1}
	opB := &storedOperator{info: OperatorInfo{ID: "b", N: 8}, matrix: m, gen: 2}
	if _, err := sp.get(opA, "cg", "", nil); err != nil {
		t.Fatal(err)
	}
	sp.dropOperator(opA)
	// Recreate under the identical key, then push the map to capacity:
	// the recreated pool must survive (its stale order entry is gone).
	if _, err := sp.get(opA, "cg", "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.get(opB, "cg", "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.get(opB, "pipecg", "", nil); err != nil {
		t.Fatal(err)
	}
	sp.mu.RLock()
	_, live := sp.pools[poolKey(opA, "cg", "", nil)]
	sp.mu.RUnlock()
	if live {
		// Capacity 2 with three shapes: the oldest ("a"/cg) should be
		// the one evicted — if it is live, a newer pool was evicted in
		// its place.
		if st := sp.stats(); st.Pools != 2 {
			t.Fatalf("capacity not enforced: %d pools", st.Pools)
		}
		t.Fatal("oldest pool survived past capacity at a newer pool's expense")
	}
}

// TestBatchDegradesUnderSaturation: with all but one run slot taken, a
// batch still succeeds on its single admission slot instead of
// oversubscribing.
func TestBatchDegradesUnderSaturation(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, MaxQueue: 8})
	if err := s.Preload("a", sparse.Poisson1D(8)); err != nil {
		t.Fatal(err)
	}
	s.run <- struct{}{} // saturate one of the two run slots
	defer func() { <-s.run }()

	body := `{"operator":"a","method":"cg","rhs":[[1,1,1,1,1,1,1,1],[2,2,2,2,2,2,2,2],[3,3,3,3,3,3,3,3]],"params":{"batch_workers":64}}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve/batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("saturated batch: want 200, got %d: %s", rec.Code, rec.Body.String())
	}
	if len(s.run) != 1 {
		t.Fatalf("run slots leaked: %d still held", len(s.run))
	}
}

// runSlotProbe records, from inside the solve, the most run slots held
// at once — the admission slot plus whatever widenBatch borrowed, i.e.
// the batch fan-out width of the request being served.
type runSlotProbe struct {
	sparse.Matrix
	s     *Server
	width atomic.Int32
}

func (p *runSlotProbe) MulVec(dst, x []float64) {
	for n := int32(len(p.s.run)); ; {
		old := p.width.Load()
		if n <= old || p.width.CompareAndSwap(old, n) {
			break
		}
	}
	p.Matrix.MulVec(dst, x)
}

// TestBinaryBatchWidthSurvivesAffinityHit: a warm binary batch must fan
// out with its own batch_workers. The affinity fast path skips the
// params decode, so the width has to come from the cached entry, not
// from pooled request scratch another caller decoded into.
func TestBinaryBatchWidthSurvivesAffinityHit(t *testing.T) {
	s := New(Config{MaxConcurrent: 4})
	probe := &runSlotProbe{Matrix: sparse.Poisson1D(8), s: s}
	if err := s.Preload("a", probe); err != nil {
		t.Fatal(err)
	}
	width := func(remote, params string) int {
		t.Helper()
		enc := wire.NewEnc(512)
		defer enc.Release()
		enc.U8(binVersion)
		enc.Str("a")
		enc.Str("cg")
		enc.Str("")
		enc.Str(params)
		enc.U32(0) // timeout_ms
		enc.U32(4)
		for k := 0; k < 4; k++ {
			enc.F64s([]float64{1, 2, 3, 4, 5, 6, 7, float64(8 + k)})
		}
		req := httptest.NewRequest("POST", "/v1/solve/batch", bytes.NewReader(enc.B))
		req.Header.Set("Content-Type", BinaryContentType)
		req.RemoteAddr = remote
		rec := httptest.NewRecorder()
		probe.width.Store(0)
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch from %s: status %d: %s", remote, rec.Code, rec.Body.String())
		}
		return int(probe.width.Load())
	}
	const capped, uncapped = "10.0.0.1:1000", "10.0.0.2:2000"
	for _, pass := range []string{"slow path", "affinity hit"} {
		if w := width(capped, `{"batch_workers":1}`); w != 1 {
			t.Errorf("%s: batch_workers=1 fanned out %d wide", pass, w)
		}
		if w := width(uncapped, ""); w != 4 {
			t.Errorf("%s: uncapped batch fanned out %d wide, want MaxConcurrent=4", pass, w)
		}
	}
}

// TestStoreRefCountPinsAgainstEviction: an operator held by an
// in-flight request survives an over-capacity insert; the store
// temporarily exceeds capacity instead.
func TestStoreRefCountPinsAgainstEviction(t *testing.T) {
	st := newOperatorStore(1)
	m := sparse.Poisson1D(4)
	if _, _, err := st.put("pinned", m); err != nil {
		t.Fatal(err)
	}
	held, err := st.acquire("pinned")
	if err != nil {
		t.Fatal(err)
	}

	_, evicted, err := st.put("next", m)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 0 {
		t.Fatalf("evicted %v while pinned", evicted)
	}
	if st.len() != 2 {
		t.Fatalf("store len %d, want temporary overflow of 2", st.len())
	}

	// Releasing unpins it; the next insert shrinks the store back to
	// capacity, evicting the idle overflow oldest-first.
	st.release(held)
	_, evicted, err = st.put("another", m)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 2 || evicted[0].info.ID != "pinned" || evicted[1].info.ID != "next" {
		t.Fatalf("evicted %v, want [pinned next]", evicted)
	}
	if st.len() != 1 {
		t.Fatalf("store len %d, want capacity 1", st.len())
	}
	if _, err := st.acquire("pinned"); err == nil {
		t.Fatal("evicted operator still acquirable")
	}
}

// TestSessionPoolsDropOperator: evicting an operator drops exactly its
// pools.
func TestSessionPoolsDropOperator(t *testing.T) {
	sp := newSessionPools(nil, 64)
	m := sparse.Poisson1D(8)
	opA := &storedOperator{info: OperatorInfo{ID: "a", N: 8}, matrix: m, gen: 1}
	opB := &storedOperator{info: OperatorInfo{ID: "b", N: 8}, matrix: m, gen: 2}
	if _, err := sp.get(opA, "cg", "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.get(opB, "cg", "", nil); err != nil {
		t.Fatal(err)
	}
	sp.dropOperator(opA)
	st := sp.stats()
	if st.Pools != 1 {
		t.Fatalf("pools after drop: %d, want 1", st.Pools)
	}
}

// TestSessionPoolsCapacity: the pool map is bounded against a client
// spraying distinct request shapes — oldest pools fall out past the
// cap, and the newest request's pool always survives.
func TestSessionPoolsCapacity(t *testing.T) {
	sp := newSessionPools(nil, 2)
	m := sparse.Poisson1D(8)
	op := &storedOperator{info: OperatorInfo{ID: "a", N: 8}, matrix: m}
	for i, tol := range []float64{1e-6, 1e-7, 1e-8, 1e-9} {
		if _, err := sp.get(op, "cg", "", &solve.Params{Tol: tol}); err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
	}
	if st := sp.stats(); st.Pools != 2 {
		t.Fatalf("pool map grew past capacity: %d pools", st.Pools)
	}
	// The newest shape must still be resident (cache hit, not rebuild):
	before := sp.stats().Sessions
	if _, err := sp.get(op, "cg", "", &solve.Params{Tol: 1e-9}); err != nil {
		t.Fatal(err)
	}
	if after := sp.stats().Sessions; after != before {
		t.Fatalf("newest shape was evicted: sessions %d -> %d", before, after)
	}
}

// TestNonFiniteStepVectorsRejected: the sequence step makes the solve
// routes' non-finite check on its right-hand side and its operator
// values. No body reaches it today — the step route is JSON only, and
// JSON cannot spell the values — so it is held here at the call it
// makes.
func TestNonFiniteStepVectorsRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		v    []float64
		want string
	}{
		{"rhs", []float64{0, math.NaN()}, "rhs 0 has a non-finite value at index 1"},
		{"vals", []float64{math.Inf(-1), 0}, "vals 0 has a non-finite value at index 0"},
	} {
		rec := httptest.NewRecorder()
		if allFinite(rec, c.name, c.v) || rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("%s: status %d body %s, want 400 %q", c.name, rec.Code, rec.Body.String(), c.want)
		}
	}
	rec := httptest.NewRecorder()
	if !allFinite(rec, "vals", nil, []float64{}, []float64{0, -0.0, math.MaxFloat64, 5e-324}) || rec.Body.Len() != 0 {
		t.Errorf("finite vectors refused: %s", rec.Body.String())
	}
}

// FuzzSequenceCreate sends arbitrary bodies to POST /v1/sequence on a
// server holding one small Rect. Every body must be answered without a
// panic, with 201 and the sequence it opened or with a JSON error body
// under a 4xx/5xx status; once a created sequence is closed again, the
// open-sequence count and the operator's pins are back where they
// started.
func FuzzSequenceCreate(f *testing.F) {
	for _, seed := range []string{
		`{"operator":"tall","method":"lsqr"}`,
		`{"operator":"tall","method":"lsqr","params":{"tol":1e-8,"max_iter":5}}`,
		`{"operator":"tall","method":"cgnr","params":{"batch_workers":3}}`,
		`{"operator":"tall","method":"cg"}`,
		`{"operator":"tall","method":"lsqr","precond":"jacobi"}`,
		`{"operator":"tall","method":"nope"}`,
		`{"operator":"missing","method":"lsqr"}`,
		`{"operator":"tall"}`,
		`{"operator":"tall","method":"lsqr","rhs":[1,2,3]}`,
		`{"operator":"tall","method":"lsqr","params":{"tol":-1}}`,
		`{"operator":"tall","method":"lsqr","params":{"processors":4}}`,
		`{"operator":"tall","method":"lsqr"}{"operator":"tall"}`,
		`{"operator":1}`, `{`, ``, `null`, `[]`, `"tall"`,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{MaxSequences: 4})
	if err := s.Preload("tall", sparse.RectFromDense(3, 2, []float64{1, 2, 3, 4, 5, 6})); err != nil {
		f.Fatal(err)
	}
	pins := func() int {
		s.store.mu.Lock()
		defer s.store.mu.Unlock()
		return s.store.entries["tall"].refs
	}
	basePins, baseOpen := pins(), s.seqs.count()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sequence", bytes.NewReader(body)))
		if rec.Code == http.StatusCreated {
			var info SequenceInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.ID == "" || info.Operator != "tall" {
				t.Fatalf("201 with body %q (%v)", rec.Body, err)
			}
			closed := httptest.NewRecorder()
			s.ServeHTTP(closed, httptest.NewRequest("DELETE", "/v1/sequence/"+info.ID, nil))
			if closed.Code != http.StatusOK {
				t.Fatalf("close %s: status %d: %s", info.ID, closed.Code, closed.Body)
			}
		} else {
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code < 400 || e.Code == "" || e.Error == "" {
				t.Fatalf("status %d with body %q (%v), want 201 or a JSON error", rec.Code, rec.Body, err)
			}
		}
		if p, open := pins(), s.seqs.count(); p != basePins || open != baseOpen {
			t.Fatalf("after %q: %d pins and %d open sequences, want %d and %d", body, p, open, basePins, baseOpen)
		}
	})
}
