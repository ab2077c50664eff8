package server

import (
	"bytes"
	"math"
	"sort"
	"strconv"
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
	requests     map[string]uint64 // route → count
	statuses     map[int]uint64    // HTTP status → count
	latency      map[string]*histogram
	queueRejects uint64
	jsonBodies   jsonBodyCounts

	// solvePhases merges the per-iteration phase histograms the
	// instrumented kernels (the parcg family) attach to their results:
	// method → SpMV / reduction-wait / update latency, in the cluster
	// workers' µs bucket vocabulary, so the SpMV/reduction overlap is
	// observable straight off /metrics for in-process solves exactly as
	// it is for fleet ones.
	solvePhases map[string]*engine.PhaseSet

	// Sequence bookkeeping: lifecycle counters and iterations-per-step
	// histograms split cold (first step) vs warm (warm-started), so the
	// warm-start payoff is observable straight off /metrics.
	seqCreated uint64
	seqReused  uint64
	seqClosed  uint64
	seqSteps   map[string]*histogram // "cold" | "warm" → iterations

	// keyScratch is the reused sorted-key slice of the manual /metrics
	// renderer (guarded by mu like everything else here).
	keyScratch []string
	intScratch []int
}

func newMetrics() *metrics {
	return &metrics{
		start:       time.Now(),
		requests:    make(map[string]uint64),
		statuses:    make(map[int]uint64),
		latency:     make(map[string]*histogram),
		solvePhases: make(map[string]*engine.PhaseSet),
		seqSteps:    make(map[string]*histogram),
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
		h = newHistogram()
		m.latency[method] = h
	}
	h.observe(ms)
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
		h = newHistogramWith(iterationBuckets)
		m.seqSteps[key] = h
	}
	h.observe(float64(iterations))
	m.mu.Unlock()
}

// metricsSnapshot is the JSON shape of GET /metrics.
type metricsSnapshot struct {
	UptimeS      float64                      `json:"uptime_s"`
	Requests     map[string]uint64            `json:"requests"`
	Statuses     map[int]uint64               `json:"statuses"`
	QueueRejects uint64                       `json:"queue_rejects"`
	JSONBodies   jsonBodyCounts               `json:"json_bodies"`
	SolveLatency map[string]histogramSnapshot `json:"solve_latency_ms"`
	// SolvePhases is the in-process solvers' per-method per-phase
	// iteration latency (the parcg family's measured SpMV/reduction
	// overlap), in the cluster workers' µs bucket vocabulary so fleet
	// and shared-memory numbers read on one scale. Absent until an
	// instrumented method has solved.
	SolvePhases  map[string]map[string]cluster.PhaseSnapshot `json:"solve_phase_latency_us,omitempty"`
	SessionPools poolStats                                   `json:"session_pools"`
	Operators    operatorGauges                              `json:"operators"`
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

	StepIterations map[string]histogramSnapshot `json:"step_iterations"`
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
		SolveLatency: make(map[string]histogramSnapshot, len(m.latency)),
	}
	for k, v := range m.requests {
		snap.Requests[k] = v
	}
	for k, v := range m.statuses {
		snap.Statuses[k] = v
	}
	for k, h := range m.latency {
		snap.SolveLatency[k] = h.snapshot()
	}
	if len(m.solvePhases) > 0 {
		snap.SolvePhases = make(map[string]map[string]cluster.PhaseSnapshot, len(m.solvePhases))
		for method, ps := range m.solvePhases {
			phases := make(map[string]cluster.PhaseSnapshot, engine.NumPhases)
			for p := engine.Phase(0); p < engine.NumPhases; p++ {
				phases[p.Name()] = phaseSnapshot(&ps[p])
			}
			snap.SolvePhases[method] = phases
		}
	}
	if m.seqCreated > 0 || len(m.seqSteps) > 0 {
		sm := &sequenceMetrics{
			Created:        m.seqCreated,
			Reused:         m.seqReused,
			Closed:         m.seqClosed,
			StepIterations: make(map[string]histogramSnapshot, len(m.seqSteps)),
		}
		for k, h := range m.seqSteps {
			sm.StepIterations[k] = h.snapshot()
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

// histogram is a fixed-bucket histogram over arbitrary upper bounds
// (latency in milliseconds, iteration counts, ...). Guarded by
// metrics.mu.
type histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	count  uint64
	sumMS  float64
	maxMS  float64
}

func newHistogram() *histogram { return newHistogramWith(latencyBuckets) }

func newHistogramWith(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(ms float64) {
	i := 0
	for i < len(h.bounds) && ms > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sumMS += ms
	if ms > h.maxMS {
		h.maxMS = ms
	}
}

// histogramSnapshot is the wire form: cumulative bucket counts keyed by
// upper bound, plus count/sum/mean/max.
type histogramSnapshot struct {
	Count   uint64            `json:"count"`
	SumMS   float64           `json:"sum_ms"`
	MeanMS  float64           `json:"mean_ms"`
	MaxMS   float64           `json:"max_ms"`
	Buckets map[string]uint64 `json:"buckets"`
}

func (h *histogram) snapshot() histogramSnapshot {
	snap := histogramSnapshot{
		Count:   h.count,
		SumMS:   h.sumMS,
		MaxMS:   h.maxMS,
		Buckets: make(map[string]uint64, len(h.counts)),
	}
	if h.count > 0 {
		snap.MeanMS = h.sumMS / float64(h.count)
	}
	cum := uint64(0)
	for i, c := range h.counts {
		cum += c
		key := "+Inf"
		if i < len(h.bounds) {
			key = formatBound(h.bounds[i])
		}
		snap.Buckets[key] = cum
	}
	return snap
}

// formatBound renders a bucket bound without trailing zeros ("0.25",
// "1", "2500").
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// phaseBound renders a µs bucket bound the way the cluster tier's
// phase histograms do ("250us", "2ms"), so both phase vocabularies
// read identically off /metrics.
func phaseBound(us float64) string {
	if us >= 1000 {
		return strconv.Itoa(int(us/1000)) + "ms"
	}
	return strconv.Itoa(int(us)) + "us"
}

// phaseSnapshot converts one engine phase histogram to the cluster
// tier's wire shape: cumulative counts keyed by upper bound.
func phaseSnapshot(h *engine.PhaseHist) cluster.PhaseSnapshot {
	s := cluster.PhaseSnapshot{
		Count:   h.Count,
		MeanUS:  h.MeanUS(),
		MaxUS:   h.MaxUS,
		Buckets: make(map[string]uint64, len(h.Buckets)),
	}
	var cum uint64
	for i, ub := range engine.PhaseBucketsUS {
		cum += h.Buckets[i]
		s.Buckets[phaseBound(ub)] = cum
	}
	cum += h.Buckets[engine.NumPhaseBuckets]
	s.Buckets["+Inf"] = cum
	return s
}

// The manual /metrics renderer. Dashboards scrape the endpoint
// continuously, and encoding/json paid ~100 allocations per scrape
// building snapshot maps just to reflect over them. The renderer
// writes the identical JSON (same field names, same map-key ordering
// — keys sorted as encoding/json sorts them) straight into a pooled
// buffer from the live state, with the bucket label strings
// precomputed once per bucket vocabulary. snapshot() stays for tests
// and programmatic use.

// bucketKeys precomputes one bucket vocabulary's JSON key strings in
// the order encoding/json would emit them (lexically sorted), with
// idx mapping each key back to its counts slot.
type bucketKeys struct {
	keys []string
	idx  []int
}

func makeBucketKeys(bounds []float64) *bucketKeys {
	keys := make([]string, len(bounds)+1)
	for i, b := range bounds {
		keys[i] = formatBound(b)
	}
	keys[len(bounds)] = "+Inf"
	return makeKeyTable(keys)
}

// makeKeyTable sorts pre-rendered bucket keys into emission order.
func makeKeyTable(keys []string) *bucketKeys {
	bk := &bucketKeys{keys: keys, idx: make([]int, len(keys))}
	for i := range bk.idx {
		bk.idx[i] = i
	}
	sort.Slice(bk.idx, func(i, j int) bool { return keys[bk.idx[i]] < keys[bk.idx[j]] })
	sorted := make([]string, len(keys))
	for i, o := range bk.idx {
		sorted[i] = keys[o]
	}
	bk.keys = sorted
	return bk
}

var (
	latencyKeys   = makeBucketKeys(latencyBuckets)
	iterationKeys = makeBucketKeys(iterationBuckets)

	// phaseKeys is the µs phase vocabulary's table; slot
	// engine.NumPhaseBuckets is overflow.
	phaseKeys = func() *bucketKeys {
		keys := make([]string, engine.NumPhaseBuckets+1)
		for i, ub := range engine.PhaseBucketsUS {
			keys[i] = phaseBound(ub)
		}
		keys[engine.NumPhaseBuckets] = "+Inf"
		return makeKeyTable(keys)
	}()

	// phaseRenderOrder lists the engine phases by lexically sorted
	// name — the order encoding/json emits map keys.
	phaseRenderOrder = func() []engine.Phase {
		ps := make([]engine.Phase, engine.NumPhases)
		for i := range ps {
			ps[i] = engine.Phase(i)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].Name() < ps[j].Name() })
		return ps
	}()
)

// keysFor maps a bounds slice to its precomputed key table.
func keysFor(bounds []float64) *bucketKeys {
	switch {
	case len(bounds) == len(latencyBuckets) && &bounds[0] == &latencyBuckets[0]:
		return latencyKeys
	case len(bounds) == len(iterationBuckets) && &bounds[0] == &iterationBuckets[0]:
		return iterationKeys
	}
	return makeBucketKeys(bounds)
}

// jsonUint writes an unsigned integer.
func jsonUint(buf *bytes.Buffer, v uint64) {
	var tmp [20]byte
	buf.Write(strconv.AppendUint(tmp[:0], v, 10))
}

// jsonIntVal writes a signed integer.
func jsonIntVal(buf *bytes.Buffer, v int) {
	var tmp [20]byte
	buf.Write(strconv.AppendInt(tmp[:0], int64(v), 10))
}

// jsonFloat writes a float the way encoding/json does: shortest 'f'
// form, switching to 'e' (with the two-digit exponent's leading zero
// trimmed) only for very large or very small magnitudes.
func jsonFloat(buf *bytes.Buffer, v float64) {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	var tmp [32]byte
	b := strconv.AppendFloat(tmp[:0], v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	buf.Write(b)
}

// render writes one histogram as its histogramSnapshot JSON.
func (h *histogram) render(buf *bytes.Buffer) {
	buf.WriteString(`{"count":`)
	jsonUint(buf, h.count)
	buf.WriteString(`,"sum_ms":`)
	jsonFloat(buf, h.sumMS)
	buf.WriteString(`,"mean_ms":`)
	mean := 0.0
	if h.count > 0 {
		mean = h.sumMS / float64(h.count)
	}
	jsonFloat(buf, mean)
	buf.WriteString(`,"max_ms":`)
	jsonFloat(buf, h.maxMS)
	buf.WriteString(`,"buckets":{`)
	var cum [32]uint64
	c := uint64(0)
	for i, v := range h.counts {
		c += v
		cum[i] = c
	}
	bk := keysFor(h.bounds)
	for i, key := range bk.keys {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('"')
		buf.WriteString(key)
		buf.WriteString(`":`)
		jsonUint(buf, cum[bk.idx[i]])
	}
	buf.WriteString("}}")
}

// renderPhaseHist writes one engine phase histogram as its
// cluster.PhaseSnapshot JSON.
func renderPhaseHist(buf *bytes.Buffer, h *engine.PhaseHist) {
	buf.WriteString(`{"count":`)
	jsonUint(buf, h.Count)
	buf.WriteString(`,"mean_us":`)
	jsonFloat(buf, h.MeanUS())
	buf.WriteString(`,"max_us":`)
	jsonFloat(buf, h.MaxUS)
	buf.WriteString(`,"buckets":{`)
	var cum [engine.NumPhaseBuckets + 1]uint64
	c := uint64(0)
	for i := range cum {
		c += h.Buckets[i]
		cum[i] = c
	}
	for i, key := range phaseKeys.keys {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('"')
		buf.WriteString(key)
		buf.WriteString(`":`)
		jsonUint(buf, cum[phaseKeys.idx[i]])
	}
	buf.WriteString("}}")
}

// render writes the full /metrics document (sans trailing newline).
// The out-of-band gauges (session pools, operators, open sequences,
// marshaled cluster block) are collected by the caller before taking
// m.mu, so no two locks are ever held together. Route and method
// names are a fixed safe vocabulary, written unescaped.
func (m *metrics) render(buf *bytes.Buffer, pools poolStats, ops operatorGauges, seqOpen int, clusterBlob []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()

	buf.WriteString(`{"uptime_s":`)
	jsonFloat(buf, time.Since(m.start).Seconds())

	buf.WriteString(`,"requests":{`)
	keys := m.keyScratch[:0]
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('"')
		buf.WriteString(k)
		buf.WriteString(`":`)
		jsonUint(buf, m.requests[k])
	}

	buf.WriteString(`},"statuses":{`)
	ints := m.intScratch[:0]
	for k := range m.statuses {
		ints = append(ints, k)
	}
	sort.Ints(ints)
	for i, k := range ints {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('"')
		jsonIntVal(buf, k)
		buf.WriteString(`":`)
		jsonUint(buf, m.statuses[k])
	}
	m.intScratch = ints[:0]

	buf.WriteString(`},"queue_rejects":`)
	jsonUint(buf, m.queueRejects)

	buf.WriteString(`,"json_bodies":{"scanned":`)
	jsonUint(buf, m.jsonBodies.Scanned)
	buf.WriteString(`,"reflected":`)
	jsonUint(buf, m.jsonBodies.Reflected)

	buf.WriteString(`},"solve_latency_ms":{`)
	keys = keys[:0]
	for k := range m.latency {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('"')
		buf.WriteString(k)
		buf.WriteString(`":`)
		m.latency[k].render(buf)
	}
	buf.WriteByte('}')

	if len(m.solvePhases) > 0 {
		buf.WriteString(`,"solve_phase_latency_us":{`)
		keys = keys[:0]
		for k := range m.solvePhases {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteByte('"')
			buf.WriteString(k)
			buf.WriteString(`":{`)
			ps := m.solvePhases[k]
			for j, p := range phaseRenderOrder {
				if j > 0 {
					buf.WriteByte(',')
				}
				buf.WriteByte('"')
				buf.WriteString(p.Name())
				buf.WriteString(`":`)
				renderPhaseHist(buf, &ps[p])
			}
			buf.WriteByte('}')
		}
		buf.WriteByte('}')
	}

	buf.WriteString(`,"session_pools":{"pools":`)
	jsonIntVal(buf, pools.Pools)
	buf.WriteString(`,"sessions":`)
	jsonIntVal(buf, pools.Sessions)
	buf.WriteString(`,"idle":`)
	jsonIntVal(buf, pools.Idle)
	buf.WriteString(`,"hits":`)
	jsonUint(buf, pools.Hits)
	buf.WriteString(`,"misses":`)
	jsonUint(buf, pools.Misses)
	buf.WriteString(`,"hit_rate":`)
	jsonFloat(buf, pools.HitRate)

	buf.WriteString(`},"operators":{"count":`)
	jsonIntVal(buf, ops.Count)
	buf.WriteString(`,"capacity":`)
	jsonIntVal(buf, ops.Capacity)
	buf.WriteByte('}')

	if m.seqCreated > 0 || len(m.seqSteps) > 0 {
		buf.WriteString(`,"sequences":{"created":`)
		jsonUint(buf, m.seqCreated)
		buf.WriteString(`,"reused":`)
		jsonUint(buf, m.seqReused)
		buf.WriteString(`,"closed":`)
		jsonUint(buf, m.seqClosed)
		buf.WriteString(`,"open":`)
		jsonIntVal(buf, seqOpen)
		buf.WriteString(`,"step_iterations":{`)
		keys = keys[:0]
		for k := range m.seqSteps {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteByte('"')
			buf.WriteString(k)
			buf.WriteString(`":`)
			m.seqSteps[k].render(buf)
		}
		buf.WriteString("}}")
	}

	if clusterBlob != nil {
		buf.WriteString(`,"cluster":`)
		buf.Write(clusterBlob)
	}
	buf.WriteByte('}')
	m.keyScratch = keys[:0]
}
