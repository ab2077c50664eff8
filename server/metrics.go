package server

import (
	"sync"
	"time"

	"vrcg/cluster"
	"vrcg/internal/engine"
)

// metrics is the server's observability state, served as JSON by
// GET /metrics: request counts per route and status, solve latency
// histograms per method, queue rejections, and (joined in by the
// handler) session-pool and operator-store gauges.
type metrics struct {
	start time.Time

	mu           sync.Mutex
	requests     map[string]uint64            // route → count
	statuses     map[int]uint64               // HTTP status → count
	latency      map[string]*engine.PhaseHist // method → ms, on latencyBuckets
	queueRejects uint64
	jsonBodies   jsonBodyCounts

	// solvePhases merges the per-iteration phase histograms the
	// instrumented kernels (the parcg family) attach to their results:
	// method → SpMV / reduction-wait / update latency in µs, so the
	// SpMV/reduction overlap is observable straight off /metrics for
	// in-process solves exactly as it is for fleet ones.
	solvePhases map[string]*engine.PhaseSet

	// Sequence bookkeeping: lifecycle counters and iterations-per-step
	// histograms split cold (first step) vs warm (warm-started), so the
	// warm-start payoff is observable straight off /metrics.
	seqCreated uint64
	seqReused  uint64
	seqClosed  uint64
	seqSteps   map[string]*engine.PhaseHist // "cold" | "warm" → iterations, on iterationBuckets
}

func newMetrics() *metrics {
	return &metrics{
		start:       time.Now(),
		requests:    make(map[string]uint64),
		statuses:    make(map[int]uint64),
		latency:     make(map[string]*engine.PhaseHist),
		solvePhases: make(map[string]*engine.PhaseSet),
		seqSteps:    make(map[string]*engine.PhaseHist),
	}
}

func (m *metrics) observeRequest(route string, status int) {
	m.mu.Lock()
	m.requests[route]++
	m.statuses[status]++
	m.mu.Unlock()
}

func (m *metrics) observeSolve(method string, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	m.mu.Lock()
	h := m.latency[method]
	if h == nil {
		h = new(engine.PhaseHist)
		m.latency[method] = h
	}
	h.Observe(latencyBuckets, ms)
	m.mu.Unlock()
}

// observeSolvePhases folds one solve's measured phase histograms into
// the per-method aggregate. Results from the non-instrumented methods
// carry no phases and are a no-op.
func (m *metrics) observeSolvePhases(method string, ps *engine.PhaseSet) {
	if ps == nil || ps.Empty() {
		return
	}
	m.mu.Lock()
	dst := m.solvePhases[method]
	if dst == nil {
		dst = new(engine.PhaseSet)
		m.solvePhases[method] = dst
	}
	dst.Merge(ps)
	m.mu.Unlock()
}

func (m *metrics) observeQueueReject() {
	m.mu.Lock()
	m.queueRejects++
	m.mu.Unlock()
}

// observeJSONBody counts one solve, batch or step body under the
// decoder it went to.
func (m *metrics) observeJSONBody(scanned bool) {
	m.mu.Lock()
	if scanned {
		m.jsonBodies.Scanned++
	} else {
		m.jsonBodies.Reflected++
	}
	m.mu.Unlock()
}

func (m *metrics) observeSequenceCreate(reused bool) {
	m.mu.Lock()
	m.seqCreated++
	if reused {
		m.seqReused++
	}
	m.mu.Unlock()
}

func (m *metrics) observeSequenceClose() {
	m.mu.Lock()
	m.seqClosed++
	m.mu.Unlock()
}

// observeSequenceStep records one step's iteration count under its
// temperature ("cold" for the first step, "warm" for warm-started
// ones).
func (m *metrics) observeSequenceStep(warm bool, iterations int) {
	key := "cold"
	if warm {
		key = "warm"
	}
	m.mu.Lock()
	h := m.seqSteps[key]
	if h == nil {
		h = new(engine.PhaseHist)
		m.seqSteps[key] = h
	}
	h.Observe(iterationBuckets, float64(iterations))
	m.mu.Unlock()
}

// metricsSnapshot is the JSON shape of GET /metrics.
type metricsSnapshot struct {
	UptimeS      float64                        `json:"uptime_s"`
	Requests     map[string]uint64              `json:"requests"`
	Statuses     map[int]uint64                 `json:"statuses"`
	QueueRejects uint64                         `json:"queue_rejects"`
	JSONBodies   jsonBodyCounts                 `json:"json_bodies"`
	SolveLatency map[string]engine.HistSnapshot `json:"solve_latency_ms"`
	// SolvePhases is the in-process solvers' per-method per-phase
	// iteration latency (the parcg family's measured SpMV/reduction
	// overlap), on the cluster workers' µs ladder so fleet and
	// shared-memory numbers read on one scale. Absent until an
	// instrumented method has solved.
	SolvePhases  map[string]map[string]engine.HistSnapshot `json:"solve_phase_latency_us,omitempty"`
	SessionPools poolStats                                 `json:"session_pools"`
	Operators    operatorGauges                            `json:"operators"`
	// Sequences is present once any /v1/sequence activity happened.
	Sequences *sequenceMetrics `json:"sequences,omitempty"`
	// Cluster is the coordinator's fleet-aggregated view (membership,
	// solve counters, per-method per-phase iteration latency) when the
	// server fronts a distributed tier; absent otherwise.
	Cluster *cluster.MetricsSnapshot `json:"cluster,omitempty"`
}

// jsonBodyCounts says which decoder the JSON bodies of the solve, batch
// and sequence-step routes went to: the scanner (jsonscan.go) or, for
// bodies outside its subset — malformed ones included — encoding/json.
// A client whose requests land in Reflected is paying the slow decode.
type jsonBodyCounts struct {
	Scanned   uint64 `json:"scanned"`
	Reflected uint64 `json:"reflected"`
}

type operatorGauges struct {
	Count    int `json:"count"`
	Capacity int `json:"capacity"`
}

// sequenceMetrics is the /metrics block for the warm-start sequence
// tier: lifecycle counters plus iterations-per-step histograms keyed
// "cold" and "warm" — warm steps landing in strictly lower buckets is
// the observable warm-start payoff.
type sequenceMetrics struct {
	Created uint64 `json:"created"`
	Reused  uint64 `json:"reused"`
	Closed  uint64 `json:"closed"`
	Open    int    `json:"open"`

	StepIterations map[string]engine.HistSnapshot `json:"step_iterations"`
}

func (m *metrics) snapshot() metricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := metricsSnapshot{
		UptimeS:      time.Since(m.start).Seconds(),
		Requests:     make(map[string]uint64, len(m.requests)),
		Statuses:     make(map[int]uint64, len(m.statuses)),
		QueueRejects: m.queueRejects,
		JSONBodies:   m.jsonBodies,
		SolveLatency: make(map[string]engine.HistSnapshot, len(m.latency)),
	}
	for k, v := range m.requests {
		snap.Requests[k] = v
	}
	for k, v := range m.statuses {
		snap.Statuses[k] = v
	}
	for k, h := range m.latency {
		snap.SolveLatency[k] = h.Snapshot(latencyBuckets)
	}
	if len(m.solvePhases) > 0 {
		snap.SolvePhases = make(map[string]map[string]engine.HistSnapshot, len(m.solvePhases))
		for method, ps := range m.solvePhases {
			snap.SolvePhases[method] = ps.Snapshot()
		}
	}
	if m.seqCreated > 0 || len(m.seqSteps) > 0 {
		sm := &sequenceMetrics{
			Created:        m.seqCreated,
			Reused:         m.seqReused,
			Closed:         m.seqClosed,
			StepIterations: make(map[string]engine.HistSnapshot, len(m.seqSteps)),
		}
		for k, h := range m.seqSteps {
			sm.StepIterations[k] = h.Snapshot(iterationBuckets)
		}
		snap.Sequences = sm
	}
	return snap
}

// latencyBuckets are the histogram upper bounds in milliseconds,
// roughly one bucket per 2.5x, spanning sub-millisecond warm solves to
// multi-second cold ones.
var latencyBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// iterationBuckets bound the sequence iterations-per-step histograms: a
// warm-started step on a converged outer loop lands in the lowest
// buckets while a cold start lands by problem difficulty.
var iterationBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}
