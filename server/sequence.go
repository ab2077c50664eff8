package server

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"vrcg/solve"
	"vrcg/sparse"
)

// This file is the /v1/sequence endpoint set: server-side warm-started
// solve sequences for outer optimization loops (ICP-style registration,
// trust-region updates) that solve a chain of closely-related systems.
// Each sequence owns a private copy of the stored operator's values, so
// its in-place updates (rescale, value replacement) never leak into
// concurrent solves against the shared stored operator, and wraps a
// solve.Sequence whose session workspaces persist across steps — the
// per-step cost is the iteration work, not setup.

// serverSequence is one live (or free-listed) sequence.
type serverSequence struct {
	id   string
	key  string // shape key: operator gen + method + precond + params
	info SequenceInfo

	// op stays pinned in the store for the sequence's lifetime, so the
	// operator it cloned cannot be evicted-and-replaced underneath the
	// ids a client holds.
	op *storedOperator
	q  *solve.Sequence

	// mu serializes steps (a solve.Sequence is single-threaded); close
	// takes it too, so an in-flight step finishes before teardown.
	mu sync.Mutex
	// dirty marks sequences whose private operator values were mutated
	// and no longer match the stored operator; close copies the stored
	// values back before parking one.
	dirty bool
	// base indexes the first step of the current incarnation inside
	// q.Steps(), so a reused sequence reports only its own history.
	base int
}

// steps returns this incarnation's per-step iteration counts.
func (sq *serverSequence) steps() []int {
	all := sq.q.Steps()
	return append([]int(nil), all[sq.base:]...)
}

// sequenceRegistry tracks open sequences by id and keeps a bounded
// free list of closed ones, their values equal to the stored
// operator's again, keyed by shape, so a client loop that opens and
// closes sequences of one shape keeps hitting hot session workspaces.
type sequenceRegistry struct {
	mu   sync.Mutex
	max  int
	seq  int
	open map[string]*serverSequence
	free map[string][]*serverSequence
}

// maxFreePerShape bounds the free list per shape key; beyond it closed
// sequences are simply dropped.
const maxFreePerShape = 4

// maxParkedHistory bounds the step history a parked sequence may carry:
// solve.Sequence.Reset keeps the history (an incarnation reports its
// own tail of it), so a sequence revived forever would otherwise grow
// by every step it ever took. Past the bound it is dropped and the next
// create builds a fresh one.
const maxParkedHistory = 4096

func newSequenceRegistry(max int) *sequenceRegistry {
	return &sequenceRegistry{
		max:  max,
		open: make(map[string]*serverSequence),
		free: make(map[string][]*serverSequence),
	}
}

func (r *sequenceRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open)
}

// take pops a free-listed sequence of the given shape, or nil.
func (r *sequenceRegistry) take(key string) *serverSequence {
	r.mu.Lock()
	defer r.mu.Unlock()
	list := r.free[key]
	if len(list) == 0 {
		return nil
	}
	sq := list[len(list)-1]
	r.free[key] = list[:len(list)-1]
	return sq
}

// admit registers a sequence under a fresh id; errTooManySequences past
// the cap.
func (r *sequenceRegistry) admit(sq *serverSequence) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.open) >= r.max {
		return fmt.Errorf("%w: %d open (cap %d); close one or raise MaxSequences",
			errTooManySequences, len(r.open), r.max)
	}
	r.seq++
	sq.id = fmt.Sprintf("seq-%d", r.seq)
	sq.info.ID = sq.id
	r.open[sq.id] = sq
	return nil
}

func (r *sequenceRegistry) get(id string) (*serverSequence, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sq, ok := r.open[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errUnknownSequence, id)
	}
	return sq, nil
}

// remove unregisters an open sequence (close's first half).
func (r *sequenceRegistry) remove(id string) (*serverSequence, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sq, ok := r.open[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errUnknownSequence, id)
	}
	delete(r.open, id)
	return sq, nil
}

// park returns a closed sequence to the free list; full lists drop
// it. Shape keys are client-controlled, so the whole free pool is
// also bounded by the open-sequence cap to keep a key-spraying client
// from growing server memory.
func (r *sequenceRegistry) park(sq *serverSequence) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.free[sq.key]) >= maxFreePerShape {
		return false
	}
	total := 0
	for _, list := range r.free {
		total += len(list)
	}
	if total >= r.max {
		return false
	}
	r.free[sq.key] = append(r.free[sq.key], sq)
	return true
}

// clonePrivate copies the stored operator's values into a
// sequence-private matrix sharing the immutable structure. Both server
// matrix types support it.
func clonePrivate(m sparse.Matrix) (sparse.Matrix, error) {
	switch t := m.(type) {
	case *sparse.CSR:
		return t.CloneValues(), nil
	case *sparse.Rect:
		return t.CloneValues(), nil
	}
	return nil, fmt.Errorf("server: operator type %T cannot back a sequence: %w", m, solve.ErrUnsupportedOperator)
}

// handleSequenceCreate is POST /v1/sequence.
func (s *Server) handleSequenceCreate(w http.ResponseWriter, r *http.Request) {
	var req SequenceCreateRequest
	if !decodeBody(w, r.Body, &req) {
		return
	}
	op := s.pinOperator(w, req.Operator, req.Method, req.Params)
	if op == nil {
		return
	}

	key := poolKey(op, req.Method, req.Precond, req.Params)
	reused := false
	var err error
	sq := s.seqs.take(key)
	if sq != nil {
		// Free-listed sequences carry the stored operator's values (close
		// restored them if a step had changed them) and are keyed on the
		// store generation, so the revived workspace is exactly what a
		// fresh build would produce — minus the setup.
		reused = true
		sq.q.Reset()
		sq.base = len(sq.q.Steps())
		sq.op = op // fresh pin
	} else {
		sq, err = s.buildSequence(op, key, req.Method, req.Precond, req.Params)
		if err != nil {
			s.store.release(op)
			fail(w, err)
			return
		}
	}
	if err := s.seqs.admit(sq); err != nil {
		s.store.release(op)
		fail(w, err)
		return
	}
	sq.info.Reused = reused
	s.met.observeSequenceCreate(reused)
	writeJSON(w, http.StatusCreated, sq.info)
}

// buildSequence constructs a fresh sequence: private operator clone,
// options from the params, preconditioner if requested.
func (s *Server) buildSequence(op *storedOperator, key, method, precondName string, params *solve.Params) (*serverSequence, error) {
	private, err := clonePrivate(op.matrix)
	if err != nil {
		return nil, err
	}
	opts := params.Options()
	if p := s.cfg.EnginePool; p != nil {
		opts = append(opts, solve.WithPool(p))
	}
	if precondName != "" {
		csr, ok := private.(*sparse.CSR)
		if !ok {
			return nil, fmt.Errorf("server: precond %q requires a square operator but %q is rectangular: %w",
				precondName, op.info.ID, solve.ErrBadOption)
		}
		m, err := buildPrecond(precondName, csr)
		if err != nil {
			return nil, err
		}
		opts = append(opts, solve.WithPreconditioner(m))
	}
	q, err := solve.NewSequence(method, private, opts...)
	if err != nil {
		return nil, err
	}
	return &serverSequence{
		key: key,
		op:  op,
		q:   q,
		info: SequenceInfo{
			Operator: op.info.ID,
			Method:   method,
			Rows:     op.info.Rows,
			Cols:     op.info.Cols,
		},
	}, nil
}

// handleSequenceStep is POST /v1/sequence/{id}/step: optional in-place
// operator update, then one warm-started solve.
func (s *Server) handleSequenceStep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sq, err := s.seqs.get(id)
	if err != nil {
		fail(w, err)
		return
	}
	st := s.scratch.get()
	defer s.scratch.put(st)
	var req SequenceStepRequest
	if !decodeRequest(s, w, r, st, &req, scanStepRequest) {
		return
	}
	if len(req.RHS) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing rhs")
		return
	}
	if len(req.RHS) != sq.info.Rows {
		writeError(w, http.StatusBadRequest, codeDimMismatch,
			fmt.Sprintf("rhs has length %d but sequence %q expects %d rows", len(req.RHS), id, sq.info.Rows))
		return
	}
	if !allFinite(w, "rhs", req.RHS) || !allFinite(w, "vals", req.Vals) {
		return
	}
	run, ok := s.start(w, r, req.TimeoutMS, nil)
	if !ok {
		return
	}
	defer s.finish(run)

	sq.mu.Lock()
	defer sq.mu.Unlock()
	// sq was looked up a body read and a wait for a slot ago. A close
	// since then has parked it, and a create may already have revived it
	// for another client under another id: it is this request's only
	// while it is still what id names.
	if cur, err := s.seqs.get(id); cur != sq {
		fail(w, err)
		return
	}

	// Operator updates first, so the solve runs against the new system.
	if req.Rescale != nil {
		if msg := rescaleFault(sq.q.Operator(), *req.Rescale); msg != "" {
			writeError(w, http.StatusBadRequest, codeBadRequest, msg)
			return
		}
		if err := sq.q.Rescale(*req.Rescale); err != nil {
			fail(w, err)
			return
		}
		sq.dirty = true
	}
	if req.Vals != nil {
		if err := sq.q.UpdateValues(req.Vals); err != nil {
			fail(w, err)
			return
		}
		sq.dirty = true
	}

	warm := sq.q.Warm()
	start := time.Now()
	res, err := sq.q.StepContext(run.ctx, req.RHS)
	s.met.observeSolve(sq.info.Method+"/sequence", time.Since(start))
	if res != nil {
		s.met.observeSequenceStep(warm, res.Iterations)
		s.met.observeSolvePhases(sq.info.Method, res.Phases)
	}
	// A partial result is usable, and it still seeds the next warm
	// start. res lives in the sequence, locked until the reply is written.
	if status, code, ok := replyStatus(err, false); ok {
		writeJSON(w, status, SequenceStepResponse{
			WireResult: wireResult(res, code),
			Step:       len(sq.q.Steps()) - 1 - sq.base,
			Warm:       warm,
		})
	} else {
		fail(w, err)
	}
}

// rescaleFault says why multiplying op's stored values by s would break
// the sequence for every later step, or returns "": no later factor
// brings back a value that s takes to ±Inf, or from non-zero to zero.
func rescaleFault(op solve.Operator, s float64) string {
	if s == 0 {
		return "rescale 0 would leave no operator to solve with"
	}
	if v, ok := op.(interface{ Values() []float64 }); ok {
		for i, x := range v.Values() {
			if y := x * s; math.IsInf(y, 0) || (y == 0 && x != 0) {
				return fmt.Sprintf("rescale %v takes stored value %d (%v) to %v", s, i, x, y)
			}
		}
	}
	return ""
}

// handleSequenceClose is DELETE /v1/sequence/{id}: report the step
// history, park the sequence for reuse, and unpin the operator. A
// sequence whose steps changed its operator values — every ICP-shaped
// one — first gets the stored operator's values copied back into its
// private clone (one values-sized copy, no allocation), so the next
// same-shape create revives hot workspaces whatever the steps did.
func (s *Server) handleSequenceClose(w http.ResponseWriter, r *http.Request) {
	sq, err := s.seqs.remove(r.PathValue("id"))
	if err != nil {
		fail(w, err)
		return
	}
	sq.mu.Lock() // wait out an in-flight step
	steps := sq.steps()
	id := sq.id
	if sq.dirty {
		// Both sequence-capable matrix types expose their values (see
		// clonePrivate), and the lengths agree by construction.
		stored := sq.op.matrix.(interface{ Values() []float64 })
		if sq.q.UpdateValues(stored.Values()) == nil {
			sq.dirty = false
		}
	}
	s.store.release(sq.op)
	sq.op = nil
	if !sq.dirty && len(sq.q.Steps()) <= maxParkedHistory {
		s.seqs.park(sq)
	}
	sq.mu.Unlock()
	s.met.observeSequenceClose()
	writeJSON(w, http.StatusOK, SequenceCloseResponse{ID: id, Steps: steps})
}
