package cluster

import (
	"strconv"
	"sync"

	"vrcg/cluster/wire"
	"vrcg/internal/engine"
)

// Phase indices for per-iteration latency accounting. Workers time each
// phase of every iteration locally (zero contention, a few nanoseconds
// per observation) and ship the histograms once, with MsgDone; the
// coordinator merges them fleet-wide per method. The split is the
// paper's decomposition of iteration cost: local matvec work vs
// neighbor communication vs global synchronization.
const (
	phaseSpMV      = iota // local shard matvec
	phaseHalo             // batched neighbor exchange (send + wait)
	phaseReduction        // blocked in allreduce wait
	phaseIter             // whole iteration
	numPhases
)

// phaseNames index the Phase* constants for wire and JSON output.
var phaseNames = [numPhases]string{"spmv", "halo", "reduction", "iteration"}

// PhaseHist is one latency histogram — the engine's type, so the
// fleet's phases and the in-process parcg phases share one Observe/
// Merge implementation and one bucket vocabulary
// (engine.PhaseBucketsUS, chosen to straddle both in-process loopback
// fleets at single-digit µs and real networks at ms).
type PhaseHist = engine.PhaseHist

// phaseSet is the per-solve bundle of one histogram per phase.
type phaseSet [numPhases]PhaseHist

func (ps *phaseSet) encode(e *wire.Enc) {
	for i := range ps {
		h := &ps[i]
		e.U64(h.Count)
		e.F64(h.SumUS)
		e.F64(h.MaxUS)
		e.U32(uint32(len(h.Buckets)))
		for _, c := range h.Buckets {
			e.U64(c)
		}
	}
}

func (ps *phaseSet) decode(d *wire.Dec) error {
	for i := range ps {
		h := &ps[i]
		h.Count = d.U64()
		h.SumUS = d.F64()
		h.MaxUS = d.F64()
		nb := int(d.U32())
		if err := d.Err(); err != nil {
			return err
		}
		for j := 0; j < nb; j++ {
			c := d.U64()
			if j < len(h.Buckets) {
				h.Buckets[j] = c
			}
		}
	}
	return d.Err()
}

func (ps *phaseSet) merge(other *phaseSet) {
	for i := range ps {
		ps[i].Merge(&other[i])
	}
}

// PhaseSnapshot is the JSON shape of one phase histogram in /metrics.
type PhaseSnapshot struct {
	Count   uint64            `json:"count"`
	MeanUS  float64           `json:"mean_us"`
	MaxUS   float64           `json:"max_us"`
	Buckets map[string]uint64 `json:"buckets"`
}

// SnapshotPhase converts one phase histogram to its /metrics shape —
// the one conversion, for the fleet's phases and (from package server)
// the in-process solvers' alike.
func SnapshotPhase(h *PhaseHist) PhaseSnapshot {
	s := PhaseSnapshot{
		Count:   h.Count,
		MeanUS:  h.MeanUS(),
		MaxUS:   h.MaxUS,
		Buckets: make(map[string]uint64, len(h.Buckets)),
	}
	// Cumulative counts keyed by upper bound, Prometheus-style, matching
	// the server's histogram rendering.
	var cum uint64
	for i, ub := range engine.PhaseBucketsUS {
		cum += h.Buckets[i]
		s.Buckets[formatBucket(ub)] = cum
	}
	cum += h.Buckets[engine.NumPhaseBuckets]
	s.Buckets["+Inf"] = cum
	return s
}

func formatBucket(us float64) string {
	switch {
	case us >= 1000:
		return strconv.Itoa(int(us/1000)) + "ms"
	default:
		return strconv.Itoa(int(us)) + "us"
	}
}

// WorkerSnapshot is one fleet member's status in /metrics and the
// workers endpoint.
type WorkerSnapshot struct {
	ID     string `json:"id"`
	Addr   string `json:"addr"`
	Alive  bool   `json:"alive"`
	Shards int    `json:"shards"`
}

// MetricsSnapshot is the coordinator's aggregate view for /metrics:
// fleet membership, solve counters, and per-method per-phase iteration
// latency histograms merged across every worker that participated.
type MetricsSnapshot struct {
	Workers      []WorkerSnapshot                    `json:"workers"`
	Operators    int                                 `json:"operators"`
	Solves       uint64                              `json:"solves"`
	Failures     uint64                              `json:"failures"`
	Retries      uint64                              `json:"retries"`
	Replacements uint64                              `json:"replacements"`
	PhaseLatency map[string]map[string]PhaseSnapshot `json:"phase_latency_us"`
}

// fleetMetrics accumulates coordinator-side counters and the merged
// per-method phase histograms.
type fleetMetrics struct {
	mu           sync.Mutex
	solves       uint64
	failures     uint64
	retries      uint64
	replacements uint64
	byMethod     map[string]*phaseSet
}

func newFleetMetrics() *fleetMetrics {
	return &fleetMetrics{byMethod: make(map[string]*phaseSet)}
}

func (m *fleetMetrics) recordSolve(method string, workers []*phaseSet, retries uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solves++
	m.retries += retries
	ps := m.byMethod[method]
	if ps == nil {
		ps = &phaseSet{}
		m.byMethod[method] = ps
	}
	for _, w := range workers {
		ps.merge(w)
	}
}

func (m *fleetMetrics) recordFailure() {
	m.mu.Lock()
	m.failures++
	m.mu.Unlock()
}

func (m *fleetMetrics) recordReplacement() {
	m.mu.Lock()
	m.replacements++
	m.mu.Unlock()
}

func (m *fleetMetrics) snapshotInto(s *MetricsSnapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s.Solves = m.solves
	s.Failures = m.failures
	s.Retries = m.retries
	s.Replacements = m.replacements
	s.PhaseLatency = make(map[string]map[string]PhaseSnapshot, len(m.byMethod))
	for method, ps := range m.byMethod {
		phases := make(map[string]PhaseSnapshot, numPhases)
		for i := range ps {
			phases[phaseNames[i]] = SnapshotPhase(&ps[i])
		}
		s.PhaseLatency[method] = phases
	}
}
