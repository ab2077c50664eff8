package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"vrcg/solve"
	"vrcg/sparse"
)

// jsonBufs pools response-encoding buffers: one Write per response
// instead of the encoder's chunked writes, and the buffer's growth is
// amortized across requests.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	if err := enc.Encode(body); err != nil {
		buf.Reset()
		buf.WriteString(`{"code":"internal","error":"response encoding failed"}` + "\n")
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // the client went away; nothing to do
	jsonBufs.Put(buf)
}

func writeError(w http.ResponseWriter, status int, code, detail string) {
	writeJSON(w, status, ErrorResponse{Code: code, Error: detail})
}

// fail answers the request with err's classified status and code (see
// errorStatus) and its message as the detail.
func fail(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	writeError(w, status, code, err.Error())
}

// decodeBody decodes a JSON request body, answering the request itself
// on failure (400 for malformed JSON, 413 past the body limit).
func decodeBody(w http.ResponseWriter, body io.Reader, dst any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, codeBadRequest,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, "malformed JSON: "+err.Error())
		return false
	}
	return true
}

// decodeRequest decodes the JSON body of a solve, batch or step request
// into req, whose vectors then live in st. The scanner (jsonscan.go)
// takes the bodies inside its strict subset; for every other body —
// and for one whose read failed — encoding/json runs over the same
// bytes, followed by the read error, exactly as decodeBody would have
// run over the wire, and produces the result, the status and every
// error byte. On failure the request has been answered.
func decodeRequest[T any](s *Server, w http.ResponseWriter, r *http.Request, st *reqScratch, req *T, scan func([]byte, *reqScratch, *T) bool) bool {
	err := s.readBody(r, st)
	scanned := err == nil && scan(st.body, st, req)
	s.met.observeJSONBody(scanned)
	if scanned {
		return true
	}
	*req = *new(T) // a declined body may have written part of it
	var body io.Reader = bytes.NewReader(st.body)
	if err != nil {
		body = io.MultiReader(body, errReader{err})
	}
	return decodeBody(w, body, req)
}

// errReader is a reader that has already failed.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// handleOperatorUpload is POST /v1/operators: decode, validate, store,
// and pre-partition the matrix for the engine pool so the first solve
// against it pays no setup.
func (s *Server) handleOperatorUpload(w http.ResponseWriter, r *http.Request) {
	var req OperatorUpload
	if !decodeBody(w, r.Body, &req) {
		return
	}
	m, err := req.Matrix.DecodeGeneralLimited(s.cfg.MaxOrder)
	if err != nil {
		fail(w, err)
		return
	}
	if !operatorFinite(w, m) {
		return
	}
	prewarmPartition(m, s.cfg.EnginePool)
	entry, evicted, err := s.store.put(req.Name, m)
	if err != nil {
		fail(w, err)
		return
	}
	for _, e := range evicted {
		s.pools.dropOperator(e)
	}
	writeJSON(w, http.StatusCreated, entry.info)
}

// prewarmPartition precomputes the nnz-balanced row partition for the
// engine pool on operators that cache one, so the first pooled SpMV
// against a fresh upload does no partitioning work.
func prewarmPartition(m sparse.Matrix, p *sparse.Pool) {
	if p == nil || p.Workers() <= 1 {
		return
	}
	if rp, ok := m.(interface{ RowPartition(int) []int }); ok {
		rp.RowPartition(p.Workers())
	}
}

// handleOperatorList is GET /v1/operators.
func (s *Server) handleOperatorList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, OperatorList{
		Operators: s.store.list(),
		Capacity:  s.cfg.MaxOperators,
	})
}

// pinOperator is the front half of every route that prepares a solve:
// the method is named, the params are values some method accepts, the
// operator exists — it comes back pinned, for the caller to release —
// and has a shape the method runs on. On failure the response has been
// written and op is nil.
func (s *Server) pinOperator(w http.ResponseWriter, operator, method string, params *solve.Params) *storedOperator {
	if method == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing method")
		return nil
	}
	if err := params.Validate(); err != nil {
		fail(w, err)
		return nil
	}
	op, err := s.store.acquire(operator)
	if err != nil {
		fail(w, err)
		return nil
	}
	if err := checkMethodShape(method, op); err != nil {
		s.store.release(op)
		fail(w, err)
		return nil
	}
	return op
}

// solveSetup resolves a decoded solve or batch request, whichever
// transport decoded it: pin the operator, check every right-hand side
// against its rows, and locate the session pool. On failure the
// response has been written and op is nil.
func (s *Server) solveSetup(w http.ResponseWriter, operator, method string, params *solve.Params, precondName string, rhs [][]float64) (*storedOperator, reqShape) {
	op := s.pinOperator(w, operator, method, params)
	if op == nil {
		return nil, reqShape{}
	}
	if !rowsMatch(w, op, rhs) {
		s.store.release(op)
		return nil, reqShape{}
	}
	pool, err := s.pools.get(op, method, precondName, params)
	if err != nil {
		s.store.release(op)
		fail(w, err)
		return nil, reqShape{}
	}
	shape := reqShape{pool: pool, method: method}
	if params != nil {
		shape.batchWorkers = params.BatchWorkers
	}
	return op, shape
}

// rowsMatch answers 400 dim_mismatch for the first right-hand side
// whose length is not the operator's row count, then 400 bad_request
// for the first value that is not finite: every solve and batch passes
// here, cold or affinity-warm, whichever transport decoded it.
func rowsMatch(w http.ResponseWriter, op *storedOperator, rhs [][]float64) bool {
	for i, b := range rhs {
		if len(b) != op.info.Rows {
			writeError(w, http.StatusBadRequest, codeDimMismatch,
				fmt.Sprintf("rhs %d has length %d but operator %q has %d rows",
					i, len(b), op.info.ID, op.info.Rows))
			return false
		}
	}
	return allFinite(w, "rhs", rhs...)
}

// allFinite answers 400 bad_request for the first NaN or ±Inf in vecs,
// the request's field name. Only a binary frame can carry one (JSON
// cannot spell it), and a solve fed one breaks down naming nothing.
func allFinite(w http.ResponseWriter, name string, vecs ...[]float64) bool {
	for k, v := range vecs {
		if i := firstNonFinite(v); i >= 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("%s %d has a non-finite value at index %d", name, k, i))
			return false
		}
	}
	return true
}

// firstNonFinite returns the index of the first NaN or ±Inf in v, or -1.
func firstNonFinite(v []float64) int {
	const expMask = 0x7FF << 52
	for i, x := range v {
		if math.Float64bits(x)&expMask == expMask {
			return i
		}
	}
	return -1
}

// operatorFinite answers 400 bad_request for the first NaN or ±Inf among
// a decoded upload's stored values, before it is stored or placed: a
// MatrixMarket document can spell one and coo duplicates can sum to one,
// and every later solve on the operator would break down naming nothing.
// Both decoded forms (*sparse.CSR, *sparse.Rect) expose their values.
func operatorFinite(w http.ResponseWriter, m sparse.Matrix) bool {
	v, ok := m.(interface{ Values() []float64 })
	if !ok {
		return true
	}
	if i := firstNonFinite(v.Values()); i >= 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("matrix has a non-finite value at stored entry %d (row-major order)", i))
		return false
	}
	return true
}

// checkMethodShape rejects operator shapes the method cannot run on,
// keyed off the registry's capability flags. Rectangular operators need
// a least-squares method; everything square stays permissive (symmetry
// is the client's claim to make, as before). Unknown methods pass —
// pool construction reports ErrUnknownMethod with the better message.
func checkMethodShape(method string, op *storedOperator) error {
	if op.info.Rows == op.info.Cols {
		return nil
	}
	if !solve.MethodCaps(method).Rectangular {
		return fmt.Errorf("server: method %q requires a square operator but %q is %dx%d: %w",
			method, op.info.ID, op.info.Rows, op.info.Cols, solve.ErrUnsupportedOperator)
	}
	return nil
}

// handleSolve is POST /v1/solve: one right-hand side through a warm
// pooled session.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	st := s.scratch.get()
	defer s.scratch.put(st)
	tr := transportOf(r)
	op, shape, timeoutMS := tr.open(s, w, r, st, true)
	if op == nil {
		return
	}
	defer s.store.release(op)
	run, ok := s.start(w, r, timeoutMS, shape.pool)
	if !ok {
		return
	}
	defer s.finish(run)

	start := time.Now()
	res, err := run.ps.Solve(st.rhs[0])
	s.met.observeSolve(shape.method, time.Since(start))
	if res != nil {
		s.met.observeSolvePhases(shape.method, res.Phases)
	}
	// res lives in the session, which is held until the reply is written.
	if status, code, ok := replyStatus(err, false); ok {
		tr.writeResult(w, status, code, res)
	} else {
		fail(w, err)
	}
}

// handleBatch is POST /v1/solve/batch: many right-hand sides fanned out
// on warm sessions of the request's pool (PooledSession.SolveMany).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	st := s.scratch.get()
	defer s.scratch.put(st)
	tr := transportOf(r)
	op, shape, timeoutMS := tr.open(s, w, r, st, false)
	if op == nil {
		return
	}
	defer s.store.release(op)
	run, ok := s.start(w, r, timeoutMS, shape.pool)
	if !ok {
		return
	}
	defer s.finish(run)

	// A batch fans out internally, so its workers must come out of the
	// same run-slot budget as everything else: the admission slot
	// already held counts as one worker, and additional slots are
	// taken only if free right now. Aggregate solver concurrency
	// across all requests — single and batch — therefore never
	// exceeds MaxConcurrent; a saturated server degrades a batch to
	// one worker instead of oversubscribing.
	extra := s.widenBatch(shape.batchWorkers, len(st.rhs))
	start := time.Now()
	results, err := run.ps.SolveMany(st.rhs, solve.WithBatchWorkers(1+extra))
	for ; extra > 0; extra-- {
		<-s.run
	}
	// Batches get their own histogram key: one observation spans the
	// whole fan-out, a different timescale than single solves.
	s.met.observeSolve(shape.method+"/batch", time.Since(start))

	// The results live in the session, held until the reply is written.
	if status, code, ok := replyStatus(err, true); ok {
		tr.writeBatch(w, status, code, results, st.rhsCodes(len(results), err))
	} else {
		fail(w, err)
	}
}

// widenBatch takes extra run slots for a batch fan-out (the admission
// slot already held counts as one); see handleBatch for the budget
// rationale. It returns how many extra slots were taken — the caller
// must drain them.
func (s *Server) widenBatch(requested, nrhs int) int {
	bw := requested
	if bw <= 0 || bw > s.cfg.MaxConcurrent {
		bw = s.cfg.MaxConcurrent
	}
	if bw > nrhs {
		bw = nrhs
	}
	extra := 0
	for extra < bw-1 {
		select {
		case s.run <- struct{}{}:
			extra++
		default:
			return extra
		}
	}
	return extra
}

// replyStatus is how the solve, batch and sequence-step routes answer a
// finished solve: 200; or 422 and the stable code under which what was
// computed still ships; or, ok false, err's own status and plain error
// body (fail). A single result ships only when the iteration budget ran
// out — its iterate is usable. A batch ships on every solver-level
// failure, because its other right-hand sides' results are;
// protocol-level ones get the plain error body there too.
func replyStatus(err error, batch bool) (status int, code string, ok bool) {
	if err == nil {
		return http.StatusOK, "", true
	}
	status, code = errorStatus(err)
	ok = status == http.StatusUnprocessableEntity && (batch || errors.Is(err, solve.ErrNotConverged))
	return status, code, ok
}

// rhsCodes attributes a batch's error to its right-hand sides — Batch
// joins *solve.RHSError values carrying the index — as one stable code
// per result, "" for a solve that converged.
func (st *reqScratch) rhsCodes(n int, err error) []string {
	if cap(st.codes) < n {
		st.codes = make([]string, n)
	}
	st.codes = st.codes[:n]
	clear(st.codes)
	if err == nil {
		return st.codes
	}
	for _, e := range joinedErrors(err) {
		var re *solve.RHSError
		if errors.As(e, &re) && re.Index >= 0 && re.Index < n {
			_, st.codes[re.Index] = errorStatus(re.Err)
		}
	}
	return st.codes
}

// joinedErrors flattens an errors.Join result (one level is all Batch
// produces); a non-joined error comes back as itself.
func joinedErrors(err error) []error {
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		return u.Unwrap()
	}
	return []error{err}
}

// handleMethods is GET /v1/methods: the registry summary.
func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) {
	names := solve.Methods()
	out := MethodList{Methods: make([]MethodInfo, len(names))}
	for i, name := range names {
		caps := solve.MethodCaps(name)
		out.Methods[i] = MethodInfo{
			Name:         name,
			Summary:      solve.Summary(name),
			Nonsymmetric: caps.Nonsymmetric,
			Rectangular:  caps.Rectangular,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:  "ok",
		UptimeS: time.Since(s.met.start).Seconds(),
	})
}

// handleMetrics is GET /metrics: the counters' snapshot with the gauges
// the rest of the server owns filled in, through the encoder every
// other response uses, so that a new key is one struct field. Rendering
// by hand would save ~9 µs and ~85 allocations of a scrape's ~14 µs and
// ~100, on a route scraped about once a second.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.met.snapshot()
	snap.SessionPools = s.pools.stats()
	snap.Operators = operatorGauges{Count: s.store.len(), Capacity: s.cfg.MaxOperators}
	if snap.Sequences != nil {
		snap.Sequences.Open = s.seqs.count()
	}
	if c := s.cfg.Cluster; c != nil {
		cs := c.Metrics()
		snap.Cluster = &cs
	}
	writeJSON(w, http.StatusOK, snap)
}
