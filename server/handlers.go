package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// solveSetup is the shared front half of the solve endpoints: validate
// the request shape, pin the operator, and locate the session pool.
// On failure the response has been written and op is nil.
func (s *Server) solveSetup(w http.ResponseWriter, operator, method string, params *solve.Params, precondName string, rhsLens ...int) (op *storedOperator, pool *solve.SessionPool) {
	if method == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing method")
		return nil, nil
	}
	if err := params.Validate(); err != nil {
		fail(w, err)
		return nil, nil
	}
	op, err := s.store.acquire(operator)
	if err != nil {
		fail(w, err)
		return nil, nil
	}
	if err := checkMethodShape(method, op); err != nil {
		s.store.release(op)
		fail(w, err)
		return nil, nil
	}
	for i, n := range rhsLens {
		if n != op.info.Rows {
			s.store.release(op)
			writeError(w, http.StatusBadRequest, codeDimMismatch,
				fmt.Sprintf("rhs %d has length %d but operator %q has %d rows",
					i, n, op.info.ID, op.info.Rows))
			return nil, nil
		}
	}
	pool, err = s.pools.get(op, method, precondName, params)
	if err != nil {
		s.store.release(op)
		fail(w, err)
		return nil, nil
	}
	return op, pool
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
// pooled session. The binary content type selects the framed
// transport (binary.go); JSON stays the default.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if isBinary(r) {
		s.handleSolveBin(w, r)
		return
	}
	st := reqScratches.Get().(*reqScratch)
	defer reqScratches.Put(st)
	var req SolveRequest
	if !decodeRequest(s, w, r, st, &req, scanSolveRequest) {
		return
	}
	if len(req.RHS) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing rhs")
		return
	}
	op, pool := s.solveSetup(w, req.Operator, req.Method, req.Params, req.Precond, len(req.RHS))
	if op == nil {
		return
	}
	defer s.store.release(op)

	ctx, cancel := s.solveContext(r, req.TimeoutMS)
	defer cancel()
	release, ok := s.acquireSlot(ctx, w)
	if !ok {
		return
	}
	defer release()

	ps, err := pool.Acquire(ctx)
	if err != nil {
		fail(w, err)
		return
	}
	start := time.Now()
	res, err := ps.Solve(req.RHS)
	s.met.observeSolve(req.Method, time.Since(start))
	if res != nil {
		s.met.observeSolvePhases(req.Method, res.Phases)
	}
	wres := wireResult(res, err)
	ps.Release()

	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, wres)
	case errors.Is(err, solve.ErrNotConverged):
		// The partial result is usable; ship it under the 422 status.
		writeJSON(w, http.StatusUnprocessableEntity, wres)
	default:
		fail(w, err)
	}
}

// handleBatch is POST /v1/solve/batch: many right-hand sides fanned out
// through solve.Batch from a pooled base session. The binary content
// type selects the framed transport (binary.go).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if isBinary(r) {
		s.handleBatchBin(w, r)
		return
	}
	st := reqScratches.Get().(*reqScratch)
	defer reqScratches.Put(st)
	var req BatchRequest
	if !decodeRequest(s, w, r, st, &req, scanBatchRequest) {
		return
	}
	if len(req.RHS) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing rhs")
		return
	}
	st.lens = st.lens[:0]
	for _, b := range req.RHS {
		st.lens = append(st.lens, len(b))
	}
	op, pool := s.solveSetup(w, req.Operator, req.Method, req.Params, req.Precond, st.lens...)
	if op == nil {
		return
	}
	defer s.store.release(op)

	ctx, cancel := s.solveContext(r, req.TimeoutMS)
	defer cancel()
	release, ok := s.acquireSlot(ctx, w)
	if !ok {
		return
	}
	defer release()

	ps, err := pool.Acquire(ctx)
	if err != nil {
		fail(w, err)
		return
	}
	// A batch fans out internally, so its workers must come out of the
	// same run-slot budget as everything else: the admission slot
	// already held counts as one worker, and additional slots are
	// taken only if free right now. Aggregate solver concurrency
	// across all requests — single and batch — therefore never
	// exceeds MaxConcurrent; a saturated server degrades a batch to
	// one worker instead of oversubscribing.
	bw := 0
	if req.Params != nil {
		bw = req.Params.BatchWorkers
	}
	extra := s.widenBatch(bw, len(req.RHS))
	start := time.Now()
	results, err := ps.SolveMany(req.RHS, solve.WithBatchWorkers(1+extra))
	for ; extra > 0; extra-- {
		<-s.run
	}
	// Batches get their own histogram key: one observation spans the
	// whole fan-out, a different timescale than single solves.
	s.met.observeSolve(req.Method+"/batch", time.Since(start))
	ps.Release()

	// Batch results own their storage (Batch clones X/History out of
	// the worker workspaces), so the response can share their slices.
	resp := BatchResponse{Results: make([]WireResult, len(results))}
	for i := range results {
		resp.Results[i] = wireResultView(&results[i], nil)
	}
	status := http.StatusOK
	if err != nil {
		// Attribute each failure to its right-hand side: Batch joins
		// *solve.RHSError values carrying the index.
		for _, e := range joinedErrors(err) {
			var re *solve.RHSError
			if errors.As(e, &re) && re.Index >= 0 && re.Index < len(resp.Results) {
				_, resp.Results[re.Index].Error = errorStatus(re.Err)
			}
		}
		var code string
		status, code = errorStatus(err)
		resp.Error = code
		// Partial results are still worth shipping for the solver-level
		// failures; protocol-level ones get the plain error body.
		if status != http.StatusUnprocessableEntity {
			writeError(w, status, code, err.Error())
			return
		}
	}
	writeJSON(w, status, resp)
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
			Block:        caps.Block,
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

// handleMetrics is GET /metrics, rendered by hand into a pooled
// buffer (see metrics.go): dashboards poll it continuously, and the
// reflective encoder burned ~100 allocations per scrape on snapshot
// maps alone. The rare cluster block still goes through encoding/json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	pools := s.pools.stats()
	ops := operatorGauges{Count: s.store.len(), Capacity: s.cfg.MaxOperators}
	var clusterBlob []byte
	if c := s.cfg.Cluster; c != nil {
		cs := c.Metrics()
		clusterBlob, _ = json.Marshal(cs)
	}
	buf := jsonBufs.Get().(*bytes.Buffer)
	buf.Reset()
	s.met.render(buf, pools, ops, s.seqs.count(), clusterBlob)
	buf.WriteByte('\n') // parity with the Encoder-based responses
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
	jsonBufs.Put(buf)
}
