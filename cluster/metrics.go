package cluster

import (
	"fmt"
	"sync"
	"time"

	"vrcg/cluster/wire"
	"vrcg/internal/engine"
	"vrcg/solve"
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

// phaseSet is the per-solve bundle of one histogram per phase, on the
// engine's µs phase ladder (engine.PhaseBucketsUS) so fleet and
// in-process phases read on one scale.
type phaseSet [numPhases]engine.PhaseHist

// phaseBuckets is the bucket count of one phase histogram on the wire:
// the ladder's bounds plus overflow.
var phaseBuckets = len(engine.PhaseBucketsUS) + 1

// observe records one duration under phase p.
func (ps *phaseSet) observe(p int, d time.Duration) {
	ps[p].Observe(engine.PhaseBucketsUS, float64(d)/1e3)
}

func (ps *phaseSet) encode(e *wire.Enc) {
	for i := range ps {
		h := &ps[i]
		e.U64(h.Count)
		e.F64(h.Sum)
		e.F64(h.Max)
		e.U32(uint32(phaseBuckets))
		for _, c := range h.Buckets[:phaseBuckets] {
			e.U64(c)
		}
	}
}

// decode refuses a bucket count other than the ladder's before reading
// any bucket, so a forged count costs nothing.
func (ps *phaseSet) decode(d *wire.Dec) error {
	for i := range ps {
		h := &ps[i]
		h.Count = d.U64()
		h.Sum = d.F64()
		h.Max = d.F64()
		if nb := d.U32(); d.Err() == nil && nb != uint32(phaseBuckets) {
			return fmt.Errorf("%w: phase %s declares %d buckets, want %d", wire.ErrFrame, phaseNames[i], nb, phaseBuckets)
		}
		for j := range h.Buckets[:phaseBuckets] {
			h.Buckets[j] = d.U64()
		}
	}
	return d.Err()
}

func (ps *phaseSet) merge(other *phaseSet) {
	for i := range ps {
		ps[i].Merge(&other[i])
	}
}

// snapshot renders ps keyed by phase name.
func (ps *phaseSet) snapshot() map[string]engine.HistSnapshot {
	m := make(map[string]engine.HistSnapshot, numPhases)
	for i := range ps {
		m[phaseNames[i]] = ps[i].Snapshot(engine.PhaseBucketsUS)
	}
	return m
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
	Workers      []WorkerSnapshot                         `json:"workers"`
	Operators    int                                      `json:"operators"`
	Solves       uint64                                   `json:"solves"`
	Failures     uint64                                   `json:"failures"`
	Retries      uint64                                   `json:"retries"`
	Replacements uint64                                   `json:"replacements"`
	PhaseLatency map[string]map[string]solve.HistSnapshot `json:"phase_latency_us"`
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
	s.PhaseLatency = make(map[string]map[string]engine.HistSnapshot, len(m.byMethod))
	for method, ps := range m.byMethod {
		s.PhaseLatency[method] = ps.snapshot()
	}
}
