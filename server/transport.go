package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"vrcg/solve"
)

// transport is the part of POST /v1/solve and /v1/solve/batch that
// depends on what carried the bytes: getting from a request body to a
// pinned operator, a resolved shape and right-hand sides, and from
// results back to a response body. Everything between the two —
// deadline, admission, warm session, solve, metrics, error attribution —
// is the handler's and runs once, whatever the framing. There are two:
// jsonTransport below, the default, and binTransport (binary.go).
// Neither has state, so picking one allocates nothing.
type transport interface {
	// open reads and decodes the request — its right-hand sides into
	// st.rhs, exactly one of them when single — pins the operator and
	// resolves the shape. On failure it has answered the request and op
	// is nil; otherwise the caller releases op.
	open(s *Server, w http.ResponseWriter, r *http.Request, st *reqScratch, single bool) (op *storedOperator, shape reqShape, timeoutMS int)
	// writeResult answers a single solve: 200, or 422 with the stable
	// code its partial result ships under.
	writeResult(w http.ResponseWriter, status int, code string, res *solve.Result)
	// writeBatch answers a batch the same way; codes[i] is right-hand
	// side i's own code ("" = converged).
	writeBatch(w http.ResponseWriter, status int, code string, results []solve.Result, codes []string)
}

// transportOf picks the request's transport: the binary content type
// selects the framed one, everything else is JSON, as ever.
func transportOf(r *http.Request) transport {
	if r.Header.Get("Content-Type") == BinaryContentType {
		return binTransport{}
	}
	return jsonTransport{}
}

// reqShape is a request's resolved shape — what the handlers need of
// (operator, method, precond, params) once the operator is pinned.
type reqShape struct {
	pool   *solve.SessionPool
	method string
	// batchWorkers is params' batch_workers, the one field the batch
	// handler reads itself rather than through the pool.
	batchWorkers int
}

// reqScratch is the per-request scratch of the solve, batch and
// sequence-step routes on both transports: the body buffer and the
// decoded vectors, reused across requests so a warm request reads and
// decodes without allocating anything proportional to its payload. The
// decoded request aliases it, so a handler gives it back only after the
// solve has returned and the response is written.
type reqScratch struct {
	body  []byte
	rhs   [][]float64
	vals  []float64 // a sequence step's operator values
	codes []string  // a batch's per-right-hand-side error codes
}

// size is the bytes the scratch's buffers hold.
func (st *reqScratch) size() int {
	n := cap(st.body) + 8*cap(st.vals)
	for _, c := range st.rhs[:cap(st.rhs)] {
		n += 8 * cap(c)
	}
	return n
}

// maxKeptScratch is the largest scratch the server keeps: past it
// readBody grows a body by a quarter of what has arrived, so such a
// body is rare and large enough to pay for its own buffers.
const maxKeptScratch = 4 * bodyReserve

// scratchList is the server's free list of request scratch, shaped like
// SessionPool's: a LIFO stack that never shrinks, so it converges to the
// peak number of requests holding a scratch at once, bounded by the
// admission bound (maxIdle). Unlike a sync.Pool a collection does not
// empty it, so a warm request decodes into the buffers an earlier one
// grew however many collections ran in between.
type scratchList struct {
	mu      sync.Mutex
	free    []*reqScratch
	maxIdle int
}

// get pops the most recently returned scratch, or a new one.
func (l *scratchList) get() *reqScratch {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(reqScratch)
	}
	st := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return st
}

// put gives st back; one past maxKeptScratch bytes, or past maxIdle
// idle ones, is left to the collector.
func (l *scratchList) put(st *reqScratch) {
	if st.size() > maxKeptScratch {
		return
	}
	l.mu.Lock()
	if len(l.free) < l.maxIdle {
		l.free = append(l.free, st)
	}
	l.mu.Unlock()
}

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

// decodeParams decodes the solve.Params JSON value at the front of b,
// refusing fields Params does not have, and reports where the value
// ended. It is the one params decoder: the body scanner hands it what
// follows "params": and the binary transport its frame's params string,
// so a name neither knows is the same 400 on both. (A reflected JSON
// body decodes params inside the request, under the same rule.)
func decodeParams(b []byte) (p *solve.Params, n int, err error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	p = new(solve.Params)
	err = dec.Decode(p)
	return p, int(dec.InputOffset()), err
}

// jsonTransport is the default transport: SolveRequest / BatchRequest
// in, WireResult / BatchResponse out.
type jsonTransport struct{}

func (jsonTransport) open(s *Server, w http.ResponseWriter, r *http.Request, st *reqScratch, single bool) (*storedOperator, reqShape, int) {
	var req BatchRequest
	if single {
		var one SolveRequest
		if !decodeRequest(s, w, r, st, &one, scanSolveRequest) {
			return nil, reqShape{}, 0
		}
		req = BatchRequest{Operator: one.Operator, Method: one.Method, Params: one.Params, Precond: one.Precond, TimeoutMS: one.TimeoutMS}
		if len(one.RHS) > 0 {
			req.RHS = append(st.rhs[:0], one.RHS)
		}
	} else if !decodeRequest(s, w, r, st, &req, scanBatchRequest) {
		return nil, reqShape{}, 0
	}
	if len(req.RHS) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing rhs")
		return nil, reqShape{}, 0
	}
	st.rhs = req.RHS
	op, shape := s.solveSetup(w, req.Operator, req.Method, req.Params, req.Precond, st.rhs)
	return op, shape, req.TimeoutMS
}

// The reply is encoded before writeJSON returns, so a single result may
// alias the session's storage: the handler holds the session until then.
func (jsonTransport) writeResult(w http.ResponseWriter, status int, code string, res *solve.Result) {
	writeJSON(w, status, wireResult(res, code))
}

func (jsonTransport) writeBatch(w http.ResponseWriter, status int, code string, results []solve.Result, codes []string) {
	resp := BatchResponse{Results: make([]WireResult, len(results)), Error: code}
	for i := range results {
		resp.Results[i] = wireResult(&results[i], codes[i])
	}
	writeJSON(w, status, resp)
}
