package engine

import (
	"strconv"
	"time"
)

// Phase latency instrumentation. A Workspace with TimePhases on charges
// the time spent inside its dispatch methods to the three phases whose
// scheduling the paper is about — the sparse matrix–vector product, the
// wait on an inner-product reduction, and the vector updates — and the
// driver publishes one observation per phase per Step, so the
// SpMV/reduction overlap is measured on actual hardware rather than
// simulated clocks. Only what goes through the Workspace is charged: a
// kernel's private sweeps (copies, parcg's spectral scaling) and scalar
// work are in no phase.
//
// PhaseHist is also the one histogram everything else on /metrics
// records into: the cluster workers' phases on the same µs ladder, and
// the server's latencies and iteration counts on ladders it owns.

// Phase indexes PhaseSet.
type Phase int

const (
	// PhaseSpMV is the matrix–vector products (MatVec*), and the rows of
	// a direction sweep with the update its row kernel carries.
	PhaseSpMV Phase = iota
	// PhaseReduction is the time spent on inner-product reductions the
	// step had to sit through: a blocking Dot* or evaluate-at-issue in
	// full, but for an overlapped reduction only the Await — the
	// residual wait after the concurrent work returns — so small values
	// here with large SpMV times are the overlap working.
	PhaseReduction
	// PhaseUpdate is the vector-update sweeps (Axpy*, Xpay), the fused
	// CG sweep whole, its (r,r) included, and a direction sweep's update
	// of the elements ahead of its first rows.
	PhaseUpdate

	// NumPhases is the number of instrumented phases.
	NumPhases
)

// phaseNames index the Phase constants for JSON output.
var phaseNames = [NumPhases]string{"spmv", "reduction_wait", "update"}

// Name returns the JSON/metrics name of the phase.
func (p Phase) Name() string { return phaseNames[p] }

// PhaseBucketsUS is the phase ladder: histogram upper bounds in
// microseconds, wide enough for in-process loopback fleets at
// single-digit µs and real networks at ms.
var PhaseBucketsUS = []float64{5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

// maxBounds is the longest bound table a PhaseHist takes.
const maxBounds = 15

// PhaseHist is a fixed-bucket histogram over a bound table its owner
// passes to Observe and Snapshot: Buckets[i] counts the observations v
// with bounds[i-1] < v ≤ bounds[i], and Buckets[len(bounds)] the ones
// above the last bound. Values are in the owner's unit (µs on the phase
// ladder). The zero value is ready to use, and the type is plain value
// data so embedding it in Result keeps result-zeroing allocation-free.
type PhaseHist struct {
	Count   uint64
	Sum     float64
	Max     float64
	Buckets [maxBounds + 1]uint64
}

// Observe records one value against bounds (ascending, at most 15
// long).
func (h *PhaseHist) Observe(bounds []float64, v float64) {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Merge folds other, recorded against the same bounds, into h.
func (h *PhaseHist) Merge(other *PhaseHist) {
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// HistSnapshot is the JSON shape of every histogram on /metrics:
// cumulative counts keyed by upper bound ('g' format) plus "+Inf",
// which equals Count. The unit is in the name of the enclosing block.
type HistSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Mean    float64           `json:"mean"`
	Max     float64           `json:"max"`
	Buckets map[string]uint64 `json:"buckets"`
}

// Snapshot renders h against the bounds it was recorded with.
func (h *PhaseHist) Snapshot(bounds []float64) HistSnapshot {
	s := HistSnapshot{Count: h.Count, Sum: h.Sum, Max: h.Max, Buckets: make(map[string]uint64, len(bounds)+1)}
	if h.Count > 0 {
		s.Mean = h.Sum / float64(h.Count)
	}
	var cum uint64
	for i, ub := range bounds {
		cum += h.Buckets[i]
		s.Buckets[strconv.FormatFloat(ub, 'g', -1, 64)] = cum
	}
	s.Buckets["+Inf"] = cum + h.Buckets[len(bounds)]
	return s
}

// PhaseSet is the per-solve bundle of one histogram per phase, indexed
// by the Phase constants, on the phase ladder.
type PhaseSet [NumPhases]PhaseHist

// Observe records one duration under the given phase.
func (ps *PhaseSet) Observe(p Phase, d time.Duration) {
	ps[p].Observe(PhaseBucketsUS, float64(d)/1e3)
}

// Merge folds other into ps phase-by-phase.
func (ps *PhaseSet) Merge(other *PhaseSet) {
	for i := range ps {
		ps[i].Merge(&other[i])
	}
}

// Snapshot renders ps keyed by phase name.
func (ps *PhaseSet) Snapshot() map[string]HistSnapshot {
	m := make(map[string]HistSnapshot, NumPhases)
	for p := range ps {
		m[Phase(p).Name()] = ps[p].Snapshot(PhaseBucketsUS)
	}
	return m
}

// Empty reports whether no observations were recorded (the
// non-instrumented methods leave Result.Phases at its zero value).
func (ps *PhaseSet) Empty() bool {
	for i := range ps {
		if ps[i].Count > 0 {
			return false
		}
	}
	return true
}
