package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"vrcg/cluster/wire"
	"vrcg/solve"
)

// This file is the binary serving transport: the cluster tier's frame
// vocabulary (cluster/wire — little-endian scalars, length-prefixed
// float64 slices) carried over the existing HTTP endpoints. JSON stays
// the default; a request arriving with the binary content type gets a
// binary response from the same handler, solving the same request
// shape. The win is the hot path: no reflection, no per-element
// formatting, pooled request/response buffers, and decode straight
// into reused scratch vectors — a warm binary solve allocates a
// handful of objects where the JSON path allocates dozens.
//
// Frame layout (docs/api.md carries the client-facing spec):
//
//	request (POST /v1/solve and /v1/solve/batch):
//	  u8   version   (= 1)
//	  str  operator
//	  str  method
//	  str  precond   ("" = none)
//	  str  params    (solve.Params JSON; "" = defaults)
//	  u32  timeout_ms (0 = server default)
//	  u32  nrhs      (must be 1 on /v1/solve)
//	  nrhs x f64s rhs
//
//	response (status 200 or 422):
//	  u8   version   (= 1)
//	  str  error     ("" = fully converged; stable code otherwise)
//	  u32  nresults
//	  per result:
//	    str  error   ("" = converged)
//	    str  method
//	    u8   converged
//	    u32  iterations
//	    f64  residual_norm
//	    f64  true_residual_norm
//	    f64s x
//
// where str is a u32 length prefix plus UTF-8 bytes and f64s is a u64
// count plus IEEE-754 little-endian doubles. Protocol failures (bad
// frame, unknown operator, queue full, ...) answer with the ordinary
// JSON ErrorResponse under the usual status code — a binary client
// distinguishes them by the response content type.

// BinaryContentType selects the binary frame transport on /v1/solve
// and /v1/solve/batch. Requests without it use JSON, as ever.
const BinaryContentType = "application/x-vrcg-bin"

const binVersion = 1

// isBinary reports whether the request opted into the binary
// transport.
func isBinary(r *http.Request) bool {
	return r.Header.Get("Content-Type") == BinaryContentType
}

// reqScratch is the pooled per-request scratch of the solve, batch and
// sequence-step routes on both transports: the body buffer and the
// decoded vectors, reused across requests so a warm request reads and
// decodes without allocating anything proportional to its payload. The
// decoded request aliases it, so a handler puts it back only after the
// solve has returned and the response is written.
type reqScratch struct {
	body  []byte
	rhs   [][]float64
	vals  []float64 // a sequence step's operator values
	lens  []int
	codes []string
}

var reqScratches = sync.Pool{New: func() any { return new(reqScratch) }}

// column0 returns the storage slot of a single right-hand side.
func (st *reqScratch) column0() *[]float64 {
	if cap(st.rhs) == 0 {
		st.rhs = make([][]float64, 1)
	}
	st.rhs = st.rhs[:1]
	return &st.rhs[0]
}

// bodyReserve bounds how far the body buffer runs ahead of the bytes
// that have arrived.
const bodyReserve = 1 << 20

// readBody reads the request body into the pooled buffer. A declared
// in-bounds Content-Length makes the read exact (ServeHTTP already
// bounded it; a warm buffer of that size is reused as is), anything
// else reads to EOF through the MaxBytesReader ServeHTTP installed.
// The declared length is a hint, not a reservation: the buffer grows as
// bytes arrive, never more than bodyReserve — or, past 4 MiB, a quarter
// of what has arrived, so that a large body is copied a bounded number
// of times — ahead of them. A client that declares 256 MiB and stalls
// pins 1 MiB.
//
// The error is the body's own, io.EOF when it ended short of its
// declared length; each transport words its own 400/413 from it.
func (s *Server) readBody(r *http.Request, st *reqScratch) error {
	want := -1
	if n := r.ContentLength; n >= 0 && n <= s.cfg.MaxBodyBytes {
		want = int(n)
	}
	buf := st.body[:0]
	for len(buf) != want {
		if len(buf) == cap(buf) {
			grow := max(bodyReserve, len(buf)/4)
			if want >= 0 {
				grow = min(grow, want-len(buf))
			}
			buf = append(make([]byte, 0, len(buf)+grow), buf...)
		}
		end := cap(buf)
		if want >= 0 {
			end = min(end, want)
		}
		n, err := r.Body.Read(buf[len(buf):end])
		buf = buf[:len(buf)+n]
		if err != nil {
			st.body = buf
			if err == io.EOF && (want < 0 || len(buf) == want) {
				return nil
			}
			return err
		}
	}
	st.body = buf
	return nil
}

// readBinBody is readBody for the binary handlers, answering the
// request itself on failure.
func (s *Server) readBinBody(w http.ResponseWriter, r *http.Request, st *reqScratch) bool {
	err := s.readBody(r, st)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError // escapes through errors.As: declared past the warm path
	switch {
	case r.ContentLength >= 0 && r.ContentLength <= s.cfg.MaxBodyBytes:
		if err == io.EOF && len(st.body) > 0 {
			err = io.ErrUnexpectedEOF // as io.ReadFull names a partial read
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, "short read: "+err.Error())
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, codeBadRequest,
			"request body exceeds the configured limit")
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, "body read: "+err.Error())
	}
	return false
}

// affEntry caches one caller's resolved request shape: matching raw
// request bytes against it skips the string materialization, params
// decode, and pool-map lookup of the slow path. The operator is
// revalidated by generation on every hit, so eviction and re-upload
// can never serve a stale pool.
type affEntry struct {
	opID    string
	method  string
	precond string
	params  string
	gen     uint64
	pool    *solve.SessionPool
	// batchWorkers is params' decoded batch_workers, the one field the
	// batch handler reads itself rather than through the pool.
	batchWorkers int
}

func (e *affEntry) matches(op, method, precond, params []byte) bool {
	return e.opID == string(op) && e.method == string(method) &&
		e.precond == string(precond) && e.params == string(params)
}

// affinity is the connection-persistent session-affinity cache, keyed
// by RemoteAddr: one keep-alive connection keeps one entry, so repeat
// solves over it hit the fast path. The map is bounded; at capacity it
// resets wholesale (entries rebuild on the next slow path) rather than
// tracking recency.
type affinity struct {
	mu sync.Mutex
	m  map[string]*affEntry
}

const maxAffinityEntries = 1024

func (a *affinity) get(key string) *affEntry {
	a.mu.Lock()
	e := a.m[key]
	a.mu.Unlock()
	return e
}

func (a *affinity) put(key string, e *affEntry) {
	a.mu.Lock()
	if a.m == nil || len(a.m) >= maxAffinityEntries {
		a.m = make(map[string]*affEntry)
	}
	a.m[key] = e
	a.mu.Unlock()
}

// binRequest is the decoded binary request header (views into the
// pooled body buffer — valid for the handler's lifetime only).
type binRequest struct {
	operator  []byte
	method    []byte
	precond   []byte
	params    []byte
	timeoutMS int
}

// decodeBinRequest parses the frame into req and st.rhs, answering the
// request itself on failure.
func (s *Server) decodeBinRequest(w http.ResponseWriter, st *reqScratch, single bool) (req binRequest, ok bool) {
	d := wire.NewDec(st.body)
	if v := d.U8(); v != binVersion && d.Err() == nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "unsupported binary protocol version")
		return req, false
	}
	req.operator = d.StrBytes()
	req.method = d.StrBytes()
	req.precond = d.StrBytes()
	req.params = d.StrBytes()
	req.timeoutMS = int(d.U32())
	nrhs := int(d.U32())
	if d.Err() != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "malformed binary frame: "+d.Err().Error())
		return req, false
	}
	switch {
	case single && nrhs != 1:
		writeError(w, http.StatusBadRequest, codeBadRequest, "binary /v1/solve takes exactly one rhs")
		return req, false
	case nrhs <= 0 || nrhs > len(st.body)/8+1:
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing rhs")
		return req, false
	}
	if cap(st.rhs) < nrhs {
		st.rhs = append(st.rhs[:cap(st.rhs)], make([][]float64, nrhs-cap(st.rhs))...)
	}
	if cap(st.lens) < nrhs {
		st.lens = make([]int, nrhs)
	}
	st.rhs = st.rhs[:nrhs]
	st.lens = st.lens[:nrhs]
	for i := range st.rhs {
		st.rhs[i] = d.F64s(st.rhs[i])
		st.lens[i] = len(st.rhs[i])
	}
	if d.Err() != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "malformed binary frame: "+d.Err().Error())
		return req, false
	}
	return req, true
}

// resolveBin turns the decoded request header into a pinned operator
// and the request's resolved shape (session pool, method,
// batch_workers). The affinity fast path compares the raw header bytes
// against the connection's cached shape and skips every per-request
// allocation of the slow path; misses run the ordinary solveSetup and
// install the cache entry. Either way the handlers read the shape from
// the returned entry, so a hit and a miss cannot disagree. On failure
// the response has been written and op is nil.
func (s *Server) resolveBin(w http.ResponseWriter, r *http.Request, st *reqScratch, req binRequest) (*storedOperator, *affEntry) {
	if e := s.aff.get(r.RemoteAddr); e != nil && e.matches(req.operator, req.method, req.precond, req.params) {
		o, err := s.store.acquire(e.opID)
		if err == nil {
			if o.gen == e.gen {
				for i, n := range st.lens {
					if n != o.info.Rows {
						s.store.release(o)
						writeError(w, http.StatusBadRequest, codeDimMismatch,
							fmt.Sprintf("rhs %d has length %d but operator %q has %d rows",
								i, n, o.info.ID, o.info.Rows))
						return nil, nil
					}
				}
				return o, e
			}
			s.store.release(o) // same name, different matrix: rebuild below
		}
	}

	operator, methodStr, precond := string(req.operator), string(req.method), string(req.precond)
	var params solve.Params
	var pp *solve.Params
	if len(req.params) > 0 {
		if err := json.Unmarshal(req.params, &params); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "malformed params JSON: "+err.Error())
			return nil, nil
		}
		pp = &params
	}
	op, pool := s.solveSetup(w, operator, methodStr, pp, precond, st.lens...)
	if op == nil {
		return nil, nil
	}
	e := &affEntry{
		opID:         operator,
		method:       methodStr,
		precond:      precond,
		params:       string(req.params),
		gen:          op.gen,
		pool:         pool,
		batchWorkers: params.BatchWorkers,
	}
	s.aff.put(r.RemoteAddr, e)
	return op, e
}

// encodeBinResult appends one result frame section under the given
// stable error code ("" = converged).
func encodeBinResult(enc *wire.Enc, res *solve.Result, code string) {
	enc.Str(code)
	if res == nil {
		enc.Str("")
		enc.U8(0)
		enc.U32(0)
		enc.F64(0)
		enc.F64(0)
		enc.F64s(nil)
		return
	}
	enc.Str(res.Method)
	if res.Converged {
		enc.U8(1)
	} else {
		enc.U8(0)
	}
	enc.U32(uint32(res.Iterations))
	enc.F64(res.ResidualNorm)
	enc.F64(res.TrueResidualNorm)
	enc.F64s(res.X)
}

// writeBin ships a finished binary frame and releases its buffer.
func writeBin(w http.ResponseWriter, status int, enc *wire.Enc) {
	w.Header().Set("Content-Type", BinaryContentType)
	w.WriteHeader(status)
	_, _ = w.Write(enc.B)
	enc.Release()
}

// handleSolveBin is the binary fast path of POST /v1/solve.
func (s *Server) handleSolveBin(w http.ResponseWriter, r *http.Request) {
	st := reqScratches.Get().(*reqScratch)
	defer reqScratches.Put(st)
	if !s.readBinBody(w, r, st) {
		return
	}
	req, ok := s.decodeBinRequest(w, st, true)
	if !ok {
		return
	}
	op, shape := s.resolveBin(w, r, st, req)
	if op == nil {
		return
	}
	defer s.store.release(op)

	ctx, cancel := s.solveContext(r, req.timeoutMS)
	defer cancel()
	release, ok := s.acquireSlot(ctx, w)
	if !ok {
		return
	}
	defer release()

	ps, err := shape.pool.Acquire(ctx)
	if err != nil {
		fail(w, err)
		return
	}
	start := time.Now()
	res, err := ps.Solve(st.rhs[0])
	s.met.observeSolve(shape.method, time.Since(start))
	if res != nil {
		s.met.observeSolvePhases(shape.method, res.Phases)
	}

	if err != nil && !errors.Is(err, solve.ErrNotConverged) {
		ps.Release()
		fail(w, err)
		return
	}
	status := http.StatusOK
	if err != nil {
		status = http.StatusUnprocessableEntity
	}
	// Encode while the session is held: the frame copies X, so the
	// session (and its Result) can go back to the pool before the
	// response hits the socket.
	code := ""
	if err != nil {
		_, code = errorStatus(err)
	}
	enc := wire.NewEnc(64 + 8*len(res.X))
	enc.U8(binVersion)
	enc.Str(code)
	enc.U32(1)
	encodeBinResult(enc, res, code)
	ps.Release()
	writeBin(w, status, enc)
}

// handleBatchBin is the binary path of POST /v1/solve/batch, sharing
// the JSON handler's slot-widening and per-RHS error attribution.
func (s *Server) handleBatchBin(w http.ResponseWriter, r *http.Request) {
	st := reqScratches.Get().(*reqScratch)
	defer reqScratches.Put(st)
	if !s.readBinBody(w, r, st) {
		return
	}
	req, ok := s.decodeBinRequest(w, st, false)
	if !ok {
		return
	}
	op, shape := s.resolveBin(w, r, st, req)
	if op == nil {
		return
	}
	defer s.store.release(op)

	ctx, cancel := s.solveContext(r, req.timeoutMS)
	defer cancel()
	release, ok := s.acquireSlot(ctx, w)
	if !ok {
		return
	}
	defer release()

	ps, err := shape.pool.Acquire(ctx)
	if err != nil {
		fail(w, err)
		return
	}
	extra := s.widenBatch(shape.batchWorkers, len(st.rhs))
	start := time.Now()
	results, err := ps.SolveMany(st.rhs, solve.WithBatchWorkers(1+extra))
	for ; extra > 0; extra-- {
		<-s.run
	}
	s.met.observeSolve(shape.method+"/batch", time.Since(start))
	ps.Release()

	status := http.StatusOK
	topCode := ""
	if cap(st.codes) < len(results) {
		st.codes = make([]string, len(results))
	}
	st.codes = st.codes[:len(results)]
	for i := range st.codes {
		st.codes[i] = ""
	}
	if err != nil {
		for _, e := range joinedErrors(err) {
			var re *solve.RHSError
			if errors.As(e, &re) && re.Index >= 0 && re.Index < len(st.codes) {
				_, st.codes[re.Index] = errorStatus(re.Err)
			}
		}
		status, topCode = errorStatus(err)
		if status != http.StatusUnprocessableEntity {
			writeError(w, status, topCode, err.Error())
			return
		}
	}
	n := 0
	for i := range results {
		n += len(results[i].X)
	}
	enc := wire.NewEnc(64 + 32*len(results) + 8*n)
	enc.U8(binVersion)
	enc.Str(topCode)
	enc.U32(uint32(len(results)))
	for i := range results {
		encodeBinResult(enc, &results[i], st.codes[i])
	}
	writeBin(w, status, enc)
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
