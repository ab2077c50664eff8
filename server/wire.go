package server

import (
	"context"
	"errors"
	"net/http"

	"vrcg/cluster"
	"vrcg/solve"
	"vrcg/sparse"
)

// This file defines the JSON wire schema of every endpoint and the one
// error-mapping table (solver sentinel → HTTP status + stable error
// code) that docs/api.md documents.

// OperatorUpload is the POST /v1/operators request body.
type OperatorUpload struct {
	// Name is the id the operator will be stored under; empty
	// auto-assigns "op-N".
	Name string `json:"name,omitempty"`
	// Matrix is the payload in any sparse wire format ("csr", "coo",
	// "matrixmarket").
	Matrix sparse.WireMatrix `json:"matrix"`
}

// OperatorInfo describes one stored operator (POST/GET /v1/operators
// responses).
type OperatorInfo struct {
	ID string `json:"id"`
	// N is the row count — the required right-hand-side length. Kept as
	// "n" for square-era clients; Rows/Cols carry the full shape.
	N              int  `json:"n"`
	Rows           int  `json:"rows"`
	Cols           int  `json:"cols"`
	NNZ            int  `json:"nnz"`
	MaxRowNonzeros int  `json:"max_row_nonzeros"`
	Symmetric      bool `json:"symmetric"`
}

// OperatorList is the GET /v1/operators response body.
type OperatorList struct {
	Operators []OperatorInfo `json:"operators"`
	Capacity  int            `json:"capacity"`
}

// SolveRequest is the POST /v1/solve request body.
type SolveRequest struct {
	// Operator names a stored operator (the id returned by upload).
	Operator string `json:"operator"`
	// Method is a solve registry name (GET /v1/methods lists them).
	Method string `json:"method"`
	// RHS is the right-hand side; its length must equal the operator
	// order.
	RHS []float64 `json:"rhs"`
	// Params carries the method options (solve.Params wire names).
	Params *solve.Params `json:"params,omitempty"`
	// Precond selects a preconditioner built from the stored operator
	// ("identity", "jacobi", "ssor", "ic0"); only "pcg" consumes it.
	Precond string `json:"precond,omitempty"`
	// TimeoutMS caps this request's solve time; 0 uses the server
	// default, and values above the server default are clamped to it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchRequest is the POST /v1/solve/batch request body: SolveRequest
// with many right-hand sides.
type BatchRequest struct {
	Operator  string        `json:"operator"`
	Method    string        `json:"method"`
	RHS       [][]float64   `json:"rhs"`
	Params    *solve.Params `json:"params,omitempty"`
	Precond   string        `json:"precond,omitempty"`
	TimeoutMS int           `json:"timeout_ms,omitempty"`
}

// WireStats mirrors the solver's operation counts.
type WireStats struct {
	MatVecs       int   `json:"matvecs"`
	InnerProducts int   `json:"inner_products"`
	VectorUpdates int   `json:"vector_updates"`
	PrecondSolves int   `json:"precond_solves,omitempty"`
	Flops         int64 `json:"flops"`
}

// WireResult is the wire form of solve.Result (POST /v1/solve response;
// batch responses carry one per right-hand side).
type WireResult struct {
	Method           string    `json:"method"`
	X                []float64 `json:"x,omitempty"`
	Iterations       int       `json:"iterations"`
	Converged        bool      `json:"converged"`
	ResidualNorm     float64   `json:"residual_norm"`
	TrueResidualNorm float64   `json:"true_residual_norm"`
	History          []float64 `json:"history,omitempty"`
	Stats            WireStats `json:"stats"`
	Syncs            int       `json:"syncs"`
	Blocks           int       `json:"blocks,omitempty"`
	// Error carries the stable error code when this solve failed but
	// still produced a usable partial result ("not_converged").
	Error string `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/solve/batch response body.
type BatchResponse struct {
	Results []WireResult `json:"results"`
	// Error carries the batch-level error code when any right-hand
	// side failed ("not_converged" when that is the only failure).
	Error string `json:"error,omitempty"`
}

// MethodInfo is one registry entry (GET /v1/methods).
type MethodInfo struct {
	Name    string `json:"name"`
	Summary string `json:"summary"`
	// Nonsymmetric marks methods that accept nonsymmetric square
	// operators; Rectangular marks the least-squares methods that also
	// accept rectangular ones. Both false means square SPD only.
	Nonsymmetric bool `json:"nonsymmetric,omitempty"`
	Rectangular  bool `json:"rectangular,omitempty"`
}

// MethodList is the GET /v1/methods response body.
type MethodList struct {
	Methods []MethodInfo `json:"methods"`
}

// SequenceCreateRequest is the POST /v1/sequence request body: it
// prepares a warm-started solve sequence against a private copy of the
// stored operator's values (sequence steps may mutate them without
// affecting other requests).
type SequenceCreateRequest struct {
	Operator string        `json:"operator"`
	Method   string        `json:"method"`
	Params   *solve.Params `json:"params,omitempty"`
	Precond  string        `json:"precond,omitempty"`
}

// SequenceInfo is the POST /v1/sequence response body (and the shape of
// the close response's summary).
type SequenceInfo struct {
	ID       string `json:"id"`
	Operator string `json:"operator"`
	Method   string `json:"method"`
	Rows     int    `json:"rows"`
	Cols     int    `json:"cols"`
	// Reused reports that the sequence was revived from the warm free
	// list (its session workspaces are already hot).
	Reused bool `json:"reused,omitempty"`
}

// SequenceStepRequest is the POST /v1/sequence/{id}/step request body.
// Rescale and Vals, when present, update the sequence's private
// operator in place (structure unchanged) before the solve.
type SequenceStepRequest struct {
	RHS []float64 `json:"rhs"`
	// Rescale multiplies every operator value by the factor first.
	Rescale *float64 `json:"rescale,omitempty"`
	// Vals replaces the operator's stored values (NNZ length).
	Vals      []float64 `json:"vals,omitempty"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
}

// SequenceStepResponse is a WireResult plus the sequence bookkeeping:
// which step this was and whether it warm-started from the previous
// solution.
type SequenceStepResponse struct {
	WireResult
	Step int  `json:"step"`
	Warm bool `json:"warm"`
}

// SequenceCloseResponse is the DELETE /v1/sequence/{id} response body:
// the per-step iteration counts the sequence accumulated.
type SequenceCloseResponse struct {
	ID    string `json:"id"`
	Steps []int  `json:"steps"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	// Code is a stable machine-readable error code (see docs/api.md).
	Code string `json:"code"`
	// Error is the human-readable detail.
	Error string `json:"error"`
}

// Health is the GET /healthz response body.
type Health struct {
	Status  string  `json:"status"`
	UptimeS float64 `json:"uptime_s"`
}

// wireResult maps a solver result onto the wire form under its stable
// error code ("" when it converged). X and History are shared with the
// result, not copied: the caller encodes the reply while it still holds
// whatever owns them (a pooled session, a locked sequence; Batch
// results own theirs).
func wireResult(res *solve.Result, code string) WireResult {
	if res == nil {
		return WireResult{}
	}
	return WireResult{
		Method:           res.Method,
		X:                res.X,
		Iterations:       res.Iterations,
		Converged:        res.Converged,
		ResidualNorm:     res.ResidualNorm,
		TrueResidualNorm: res.TrueResidualNorm,
		Stats: WireStats{
			MatVecs:       res.Stats.MatVecs,
			InnerProducts: res.Stats.InnerProducts,
			VectorUpdates: res.Stats.VectorUpdates,
			PrecondSolves: res.Stats.PrecondSolves,
			Flops:         res.Stats.Flops,
		},
		Syncs:   res.Syncs,
		Blocks:  res.Blocks,
		History: res.History,
		Error:   code,
	}
}

// Stable error codes; docs/api.md carries the full table.
const (
	codeBadRequest       = "bad_request"
	codeBadMatrix        = "bad_matrix"
	codeBadOption        = "bad_option"
	codeDimMismatch      = "dim_mismatch"
	codeUnknownMethod    = "unknown_method"
	codeUnknownOperator  = "unknown_operator"
	codeOperatorExists   = "operator_exists"
	codeNotConverged     = "not_converged"
	codeIndefinite       = "indefinite"
	codeBreakdown        = "breakdown"
	codeUnsupportedOp    = "unsupported_operator"
	codeUnknownSequence  = "unknown_sequence"
	codeTooManySequences = "too_many_sequences"
	codeDeadlineExceeded = "deadline_exceeded"
	codeCanceled         = "canceled"
	codeQueueFull        = "queue_full"
	codeShuttingDown     = "shutting_down"
	codeInternal         = "internal"
	// Distributed-tier codes (/v1/cluster/*).
	codeNoCluster = "no_cluster"
	codeNoWorkers = "no_workers"
	codeDegraded  = "degraded"
)

// Store-level sentinels (the solver ones live in solve/errors.go).
var (
	errUnknownOperator  = errors.New("server: unknown operator")
	errOperatorExists   = errors.New("server: operator id already in use")
	errBadOperatorName  = errors.New("server: invalid operator name")
	errUnknownSequence  = errors.New("server: unknown sequence")
	errTooManySequences = errors.New("server: too many open sequences")
)

// errorStatus is the single mapping from an error to its HTTP status
// and stable code. Solver errors carry sentinel wrapping throughout the
// repository, so errors.Is suffices.
func errorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, errUnknownOperator), errors.Is(err, cluster.ErrUnknownOperator):
		return http.StatusNotFound, codeUnknownOperator
	case errors.Is(err, errOperatorExists), errors.Is(err, cluster.ErrOperatorExists):
		return http.StatusConflict, codeOperatorExists
	case errors.Is(err, cluster.ErrNoWorkers):
		// The fleet has no live workers: retryable once capacity returns.
		return http.StatusServiceUnavailable, codeNoWorkers
	case errors.Is(err, cluster.ErrDegraded):
		// Placement or solve kept failing while the fleet shrank.
		return http.StatusServiceUnavailable, codeDegraded
	case errors.Is(err, cluster.ErrClosed):
		return http.StatusServiceUnavailable, codeShuttingDown
	case errors.Is(err, errBadOperatorName):
		return http.StatusBadRequest, codeBadRequest
	case errors.Is(err, sparse.ErrWire):
		return http.StatusBadRequest, codeBadMatrix
	case errors.Is(err, solve.ErrUnknownMethod):
		return http.StatusBadRequest, codeUnknownMethod
	case errors.Is(err, solve.ErrBadOption):
		return http.StatusBadRequest, codeBadOption
	case errors.Is(err, solve.ErrDim):
		return http.StatusBadRequest, codeDimMismatch
	case errors.Is(err, solve.ErrNotConverged):
		// The partial result is usable; 422 tells the client the
		// request was well-formed but the iteration budget ran out.
		return http.StatusUnprocessableEntity, codeNotConverged
	case errors.Is(err, solve.ErrIndefinite):
		return http.StatusUnprocessableEntity, codeIndefinite
	case errors.Is(err, solve.ErrBreakdown):
		return http.StatusUnprocessableEntity, codeBreakdown
	case errors.Is(err, solve.ErrUnsupportedOperator):
		// Well-formed request, but the method cannot run on this
		// operator's shape (e.g. cg on a rectangular matrix).
		return http.StatusUnprocessableEntity, codeUnsupportedOp
	case errors.Is(err, errUnknownSequence):
		return http.StatusNotFound, codeUnknownSequence
	case errors.Is(err, errTooManySequences):
		return http.StatusTooManyRequests, codeTooManySequences
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, codeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		// Client went away; the status is for the access log only.
		return statusClientClosedRequest, codeCanceled
	default:
		return http.StatusInternalServerError, codeInternal
	}
}

// statusClientClosedRequest is nginx's conventional 499 for a client
// that disconnected before the response was ready.
const statusClientClosedRequest = 499
