package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"vrcg/cluster"
	"vrcg/solve"
)

// This file is the HTTP face of the distributed tier: when Config
// .Cluster carries a coordinator, the /v1/cluster/* endpoints expose
// fleet membership, sharded operator upload, and distributed solves.
// Without one the endpoints answer 404 no_cluster, so a single-process
// server and a coordinator share one binary and one handler set.

// ClusterWorkers is the GET /v1/cluster/workers response body.
type ClusterWorkers struct {
	Workers []cluster.WorkerSnapshot `json:"workers"`
	// Operators are the names currently placed across the fleet.
	Operators []string `json:"operators"`
}

// ClusterOperatorInfo is the POST /v1/cluster/operators response body.
type ClusterOperatorInfo struct {
	ID  string `json:"id"`
	N   int    `json:"n"`
	NNZ int    `json:"nnz"`
	// Workers is the live fleet size the operator was sharded across
	// (the shard count is min(workers, rows)).
	Workers int `json:"workers"`
}

// ClusterSolveRequest is the POST /v1/cluster/solve request body.
type ClusterSolveRequest struct {
	// Operator names an operator placed via POST /v1/cluster/operators.
	Operator string `json:"operator"`
	// Method is a registry method declared solve.Caps.Sharded.
	Method string `json:"method"`
	// RHS is the full (unsharded) right-hand side.
	RHS []float64 `json:"rhs"`
	// Precond names the block-Jacobi subdomain local for pcg
	// ("identity", "jacobi", "ssor", "ic0").
	Precond string `json:"precond,omitempty"`
	// Tol is the relative residual tolerance (engine default when 0).
	Tol float64 `json:"tol,omitempty"`
	// MaxIter caps iterations (engine default 10n when 0).
	MaxIter int `json:"max_iter,omitempty"`
	// TimeoutMS caps this solve, clamped to the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ClusterSolveResult is the POST /v1/cluster/solve response body.
type ClusterSolveResult struct {
	Method           string    `json:"method"`
	X                []float64 `json:"x,omitempty"`
	Iterations       int       `json:"iterations"`
	Converged        bool      `json:"converged"`
	ResidualNorm     float64   `json:"residual_norm"`
	TrueResidualNorm float64   `json:"true_residual_norm"`
	// Workers is how many shards ran; Degraded means fewer than the
	// operator's original placement (capacity lost to worker deaths);
	// Retries counts mid-solve re-placements.
	Workers  int       `json:"workers"`
	Degraded bool      `json:"degraded,omitempty"`
	Retries  int       `json:"retries,omitempty"`
	Stats    WireStats `json:"stats"`
	// Phases holds the fleet-merged per-iteration latency histograms
	// for this solve, keyed spmv/halo/reduction/iteration.
	Phases map[string]solve.HistSnapshot `json:"phase_latency_us,omitempty"`
	// Error carries the stable code when the solve failed but still
	// produced a usable partial result ("not_converged").
	Error string `json:"error,omitempty"`
}

// clusterOpName auto-assigns ids for unnamed cluster uploads.
var clusterOpSeq atomic.Uint64

// requireCluster answers 404 no_cluster when the server has no
// coordinator attached.
func (s *Server) requireCluster(w http.ResponseWriter) *cluster.Coordinator {
	if s.cfg.Cluster == nil {
		writeError(w, http.StatusNotFound, codeNoCluster,
			"this server is not a cluster coordinator (no fleet attached)")
		return nil
	}
	return s.cfg.Cluster
}

// handleClusterWorkers is GET /v1/cluster/workers: fleet membership.
func (s *Server) handleClusterWorkers(w http.ResponseWriter, r *http.Request) {
	c := s.requireCluster(w)
	if c == nil {
		return
	}
	writeJSON(w, http.StatusOK, ClusterWorkers{
		Workers:   c.Workers(),
		Operators: c.Operators(),
	})
}

// handleClusterUpload is POST /v1/cluster/operators: decode the matrix
// (same wire formats as /v1/operators), shard its rows nnz-balanced
// across the live fleet, and ship every worker its shard plus halo
// schedule.
func (s *Server) handleClusterUpload(w http.ResponseWriter, r *http.Request) {
	c := s.requireCluster(w)
	if c == nil {
		return
	}
	var req OperatorUpload
	if !decodeBody(w, r.Body, &req) {
		return
	}
	m, err := req.Matrix.DecodeLimited(s.cfg.MaxOrder)
	if err != nil {
		fail(w, err)
		return
	}
	if !operatorFinite(w, m) {
		return
	}
	name := req.Name
	if name == "" {
		name = fmt.Sprintf("op-%d", clusterOpSeq.Add(1))
	}
	if err := c.Place(name, m); err != nil {
		fail(w, err)
		return
	}
	live := 0
	for _, ws := range c.Workers() {
		if ws.Alive {
			live++
		}
	}
	writeJSON(w, http.StatusCreated, ClusterOperatorInfo{
		ID: name, N: m.Dim(), NNZ: m.NNZ(), Workers: live,
	})
}

// handleClusterSolve is POST /v1/cluster/solve: one distributed solve
// across the fleet. The coordinator runs one distributed solve at a
// time (the fleet is one resource), so this endpoint does not consume
// local run slots.
func (s *Server) handleClusterSolve(w http.ResponseWriter, r *http.Request) {
	c := s.requireCluster(w)
	if c == nil {
		return
	}
	var req ClusterSolveRequest
	if !decodeBody(w, r.Body, &req) {
		return
	}
	if req.Method == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing method")
		return
	}
	if len(req.RHS) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing rhs")
		return
	}
	ctx, cancel := s.solveContext(r, req.TimeoutMS)
	defer cancel()

	start := time.Now()
	res, err := c.Solve(ctx, req.Operator, req.Method, req.RHS, cluster.SolveOpts{
		Tol:     req.Tol,
		MaxIter: req.MaxIter,
		Precond: req.Precond,
	})
	s.met.observeSolve(req.Method+"/cluster", time.Since(start))

	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, clusterWireResult(res, nil))
	case errors.Is(err, solve.ErrNotConverged) && res != nil:
		// The partial result is usable; ship it under the 422 status.
		writeJSON(w, http.StatusUnprocessableEntity, clusterWireResult(res, err))
	default:
		fail(w, err)
	}
}

func clusterWireResult(res *cluster.Result, err error) ClusterSolveResult {
	out := ClusterSolveResult{
		Method:           res.Method,
		X:                res.X,
		Iterations:       res.Iterations,
		Converged:        res.Converged,
		ResidualNorm:     res.ResidualNorm,
		TrueResidualNorm: res.TrueResidualNorm,
		Workers:          res.Workers,
		Degraded:         res.Degraded,
		Retries:          res.Retries,
		Stats: WireStats{
			MatVecs:       int(res.Stats.MatVecs),
			InnerProducts: int(res.Stats.InnerProducts),
			VectorUpdates: int(res.Stats.VectorUpdates),
			PrecondSolves: int(res.Stats.PrecondSolves),
		},
		Phases: res.Phases,
	}
	if err != nil {
		_, out.Error = errorStatus(err)
	}
	return out
}
