package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"

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

// readBinBody is readBody for the binary transport, answering the
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

// affEntry caches one request shape: a request whose raw header bytes
// match a cached entry skips the string materialization, params
// decode, and pool-map lookup of the slow path. The operator is
// revalidated by generation on every hit, so eviction and re-upload
// can never serve a stale pool.
type affEntry struct {
	opID string
	gen  uint64
	reqShape
}

// affinity is the binary transport's shape cache, keyed by a request's
// header bytes — its operator, method, precond and params, each with
// its length prefix — so every connection that repeats a shape, however
// it interleaves shapes, hits it. The map is bounded; at capacity it
// resets wholesale (entries rebuild on the next slow path) rather than
// tracking recency.
type affinity struct {
	mu sync.Mutex
	m  map[string]*affEntry
}

const maxAffinityEntries = 1024

func (a *affinity) get(key []byte) *affEntry {
	a.mu.Lock()
	e := a.m[string(key)] // the conversion in an index expression does not allocate
	a.mu.Unlock()
	return e
}

func (a *affinity) put(key []byte, e *affEntry) {
	a.mu.Lock()
	if a.m == nil || len(a.m) >= maxAffinityEntries {
		a.m = make(map[string]*affEntry)
	}
	a.m[string(key)] = e
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
	// shape is the four strings above with their length prefixes, as
	// the frame carries them: the affinity key.
	shape []byte
}

// decodeBinRequest parses the frame into req and st.rhs, answering the
// request itself on failure.
func decodeBinRequest(w http.ResponseWriter, st *reqScratch, single bool) (req binRequest, ok bool) {
	d := wire.NewDec(st.body)
	if v := d.U8(); v != binVersion && d.Err() == nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "unsupported binary protocol version")
		return req, false
	}
	req.operator = d.StrBytes()
	req.method = d.StrBytes()
	req.precond = d.StrBytes()
	req.params = d.StrBytes()
	if d.Err() == nil {
		req.shape = st.body[1 : 1+4*4+len(req.operator)+len(req.method)+len(req.precond)+len(req.params)]
	}
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
	st.rhs = st.rhs[:nrhs]
	for i := range st.rhs {
		st.rhs[i] = d.F64s(st.rhs[i])
	}
	if d.Err() != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "malformed binary frame: "+d.Err().Error())
		return req, false
	}
	return req, true
}

// resolveBin turns the decoded request header into a pinned operator
// and the request's resolved shape. The affinity fast path looks the raw
// header bytes up among the cached shapes and skips every per-request
// allocation of the slow path; misses run the ordinary solveSetup and
// install the cache entry. Either way the shape comes out of the entry,
// so a hit and a miss cannot disagree. On failure the response has been
// written and op is nil.
func (s *Server) resolveBin(w http.ResponseWriter, st *reqScratch, req binRequest) (*storedOperator, *affEntry) {
	if e := s.aff.get(req.shape); e != nil {
		o, err := s.store.acquire(e.opID)
		if err == nil {
			if o.gen == e.gen {
				if !rowsMatch(w, o, st.rhs) {
					s.store.release(o)
					return nil, nil
				}
				return o, e
			}
			s.store.release(o) // same name, different matrix: rebuild below
		}
	}

	var params *solve.Params
	if len(req.params) > 0 {
		// The field is a whole document, so a syntax error anywhere in
		// it — past the first value too — comes first and in the words
		// json.Unmarshal had for it when it decoded the field.
		var err error
		if json.Valid(req.params) {
			params, _, err = decodeParams(req.params)
		} else {
			err = json.Unmarshal(req.params, new(json.RawMessage))
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "malformed params JSON: "+err.Error())
			return nil, nil
		}
	}
	e := &affEntry{opID: string(req.operator)}
	op, shape := s.solveSetup(w, e.opID, string(req.method), params, string(req.precond), st.rhs)
	if op == nil {
		return nil, nil
	}
	e.gen, e.reqShape = op.gen, shape
	s.aff.put(req.shape, e)
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

// binFrame starts a response frame: version, the response-level code,
// the result count.
func binFrame(code string, nresults, hint int) *wire.Enc {
	enc := wire.NewEnc(hint)
	enc.U8(binVersion)
	enc.Str(code)
	enc.U32(uint32(nresults))
	return enc
}

// binTransport is the framed transport: the request frame above in,
// the response frame out.
type binTransport struct{}

func (binTransport) open(s *Server, w http.ResponseWriter, r *http.Request, st *reqScratch, single bool) (*storedOperator, reqShape, int) {
	if !s.readBinBody(w, r, st) {
		return nil, reqShape{}, 0
	}
	req, ok := decodeBinRequest(w, st, single)
	if !ok {
		return nil, reqShape{}, 0
	}
	op, e := s.resolveBin(w, st, req)
	if op == nil {
		return nil, reqShape{}, 0
	}
	return op, e.reqShape, req.timeoutMS
}

// The frame copies X out of the session's storage, which the handler
// holds until this returns.
func (binTransport) writeResult(w http.ResponseWriter, status int, code string, res *solve.Result) {
	enc := binFrame(code, 1, 64+8*len(res.X))
	encodeBinResult(enc, res, code)
	writeBin(w, status, enc)
}

func (binTransport) writeBatch(w http.ResponseWriter, status int, code string, results []solve.Result, codes []string) {
	n := 0
	for i := range results {
		n += len(results[i].X)
	}
	enc := binFrame(code, len(results), 64+32*len(results)+8*n)
	for i := range results {
		encodeBinResult(enc, &results[i], codes[i])
	}
	writeBin(w, status, enc)
}
