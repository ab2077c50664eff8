package engine

import "time"

// Phase latency instrumentation. A Workspace with TimePhases on charges
// the time spent inside its dispatch methods to the three phases whose
// scheduling the paper is about — the sparse matrix–vector product, the
// wait on an inner-product reduction, and the vector updates — and the
// driver publishes one observation per phase per Step, so the
// SpMV/reduction overlap is measured on actual hardware rather than
// simulated clocks. Only what goes through the Workspace is charged: a
// kernel's private sweeps (copies, parcg's spectral scaling) and scalar
// work are in no phase. The bucket vocabulary matches the cluster
// workers' phase histograms (14 upper bounds in microseconds plus
// overflow), so fleet and shared-memory numbers read on one scale.

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

// NumPhaseBuckets is the bucket count of PhaseHist (excluding overflow).
const NumPhaseBuckets = 14

// PhaseBucketsUS are the histogram upper bounds in microseconds, shared
// with the cluster workers' phase histograms (cluster.PhaseHist is this
// type).
var PhaseBucketsUS = [NumPhaseBuckets]float64{5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

// PhaseHist is one latency histogram: counts per bucket (the final
// bucket is overflow), plus count/sum/max for means and tails. The zero
// value is ready to use, and the type is plain value data so embedding
// it in Result keeps result-zeroing allocation-free.
type PhaseHist struct {
	Count   uint64
	SumUS   float64
	MaxUS   float64
	Buckets [NumPhaseBuckets + 1]uint64
}

// Observe records one duration.
func (h *PhaseHist) Observe(d time.Duration) {
	us := float64(d.Nanoseconds()) / 1e3
	h.Count++
	h.SumUS += us
	if us > h.MaxUS {
		h.MaxUS = us
	}
	for i, ub := range PhaseBucketsUS {
		if us <= ub {
			h.Buckets[i]++
			return
		}
	}
	h.Buckets[NumPhaseBuckets]++
}

// Merge folds other into h.
func (h *PhaseHist) Merge(other *PhaseHist) {
	h.Count += other.Count
	h.SumUS += other.SumUS
	if other.MaxUS > h.MaxUS {
		h.MaxUS = other.MaxUS
	}
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// MeanUS returns the mean observation in microseconds.
func (h *PhaseHist) MeanUS() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumUS / float64(h.Count)
}

// PhaseSet is the per-solve bundle of one histogram per phase, indexed
// by the Phase constants.
type PhaseSet [NumPhases]PhaseHist

// Observe records one duration under the given phase.
func (ps *PhaseSet) Observe(p Phase, d time.Duration) { ps[p].Observe(d) }

// Merge folds other into ps phase-by-phase.
func (ps *PhaseSet) Merge(other *PhaseSet) {
	for i := range ps {
		ps[i].Merge(&other[i])
	}
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
