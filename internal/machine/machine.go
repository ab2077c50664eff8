// Package machine is the α–β cost model of a distributed-memory
// machine: P processors with logical clocks, a message costing its
// sender Alpha and reaching its receiver Alpha + Beta·words after it
// departs, FlopTime a flop of local work, and the recursive-doubling
// allreduce the schedules' inner products ride on, blocking and issued.
// Go has no MPI, and the model needs none: nothing here carries data. A
// schedule is charged from its shape alone — internal/parcg replays the
// paper's schedules through a row partition of the operator — so every
// run is pure clock arithmetic, exact and reproducible. Parallel time is
// the latest clock, the paper's "parallel time" unit.
package machine

import (
	"fmt"
	"math"
	"sort"
)

// Config fixes the machine parameters.
type Config struct {
	// P is the processor count (>= 1).
	P int
	// Alpha is the per-message latency (in time units).
	Alpha float64
	// Beta is the per-word transfer time.
	Beta float64
	// FlopTime is the time per floating-point operation (the paper's
	// unit-time normalization uses 1).
	FlopTime float64
}

// DefaultConfig mirrors the paper's idealized machine: unit flop time,
// unit message latency, negligible bandwidth term. With these constants
// a length-P fan-in costs ~2*log2(P), matching the c*log(N) unit.
func DefaultConfig(p int) Config {
	return Config{P: p, Alpha: 1, Beta: 0.01, FlopTime: 1}
}

// Stats aggregates simulated activity.
type Stats struct {
	Messages int
	Words    int
	Flops    int64
}

// Machine is a simulated P-processor distributed-memory machine.
type Machine struct {
	cfg    Config
	clocks []float64
	stats  Stats
	// SendPhase's scratch: messages posted and latest arrival per
	// processor.
	sent     []int
	arrivals []float64
}

// New builds a machine from the configuration.
func New(cfg Config) *Machine {
	if cfg.P < 1 {
		panic(fmt.Sprintf("machine: P = %d < 1", cfg.P))
	}
	if cfg.Alpha < 0 || cfg.Beta < 0 || cfg.FlopTime < 0 {
		panic("machine: negative cost parameters")
	}
	return &Machine{cfg: cfg, clocks: make([]float64, cfg.P),
		sent: make([]int, cfg.P), arrivals: make([]float64, cfg.P)}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// P returns the processor count.
func (m *Machine) P() int { return m.cfg.P }

// Clock returns processor i's logical clock.
func (m *Machine) Clock(i int) float64 { return m.clocks[m.check(i)] }

// MaxClock returns the latest clock — the parallel time so far.
func (m *Machine) MaxClock() float64 {
	mx := 0.0
	for _, c := range m.clocks {
		if c > mx {
			mx = c
		}
	}
	return mx
}

// Stats returns the accumulated activity counters.
func (m *Machine) Stats() Stats { return m.stats }

func (m *Machine) check(i int) int {
	if i < 0 || i >= m.cfg.P {
		panic(fmt.Sprintf("machine: processor %d out of range [0,%d)", i, m.cfg.P))
	}
	return i
}

func checkWords(words int) {
	if words < 0 {
		panic("machine: negative message size")
	}
}

// Compute charges flops of local computation to processor i.
func (m *Machine) Compute(i int, flops int) {
	m.check(i)
	if flops < 0 {
		panic("machine: negative flops")
	}
	m.clocks[i] += float64(flops) * m.cfg.FlopTime
	m.stats.Flops += int64(flops)
}

// ComputeAll charges the same local work to every processor (a perfectly
// balanced data-parallel phase).
func (m *Machine) ComputeAll(flopsPerProc int) {
	for i := 0; i < m.cfg.P; i++ {
		m.Compute(i, flopsPerProc)
	}
}

// Send models a blocking message of the given number of words from
// processor `from` to `to`: the message departs at the sender's clock,
// occupies the sender for the latency Alpha, and is available to the
// receiver Alpha + Beta*words after departure. The receiver's clock
// advances to the arrival time if it was earlier (a receive that waits).
func (m *Machine) Send(from, to, words int) {
	m.check(from)
	m.check(to)
	checkWords(words)
	if from == to {
		return // local move, free under the model
	}
	depart := m.clocks[from]
	m.clocks[from] = depart + m.cfg.Alpha
	arrive := depart + m.cfg.Alpha + m.cfg.Beta*float64(words)
	if arrive > m.clocks[to] {
		m.clocks[to] = arrive
	}
	m.stats.Messages++
	m.stats.Words += words
}

// Exchange models a simultaneous pairwise exchange (both directions in
// flight concurrently, as in recursive doubling): both processors end at
// max(start_a, start_b) + Alpha + Beta*words.
func (m *Machine) Exchange(a, b, words int) {
	m.check(a)
	m.check(b)
	checkWords(words)
	if a == b {
		return
	}
	start := m.clocks[a]
	if m.clocks[b] > start {
		start = m.clocks[b]
	}
	t := start + m.cfg.Alpha + m.cfg.Beta*float64(words)
	m.clocks[a] = t
	m.clocks[b] = t
	m.stats.Messages += 2
	m.stats.Words += 2 * words
}

// Message describes one point-to-point transfer inside a SendPhase.
type Message struct {
	From, To, Words int
}

// SendPhase executes a set of messages that are all posted at the same
// program point (a halo exchange, a shift round): each sender's messages
// depart back-to-back from its clock at phase start, and each receiver
// advances to the latest arrival destined for it. Unlike sequential Send
// calls, receiving inside the phase does not delay a processor's own
// sends — the semantics of posted/nonblocking communication.
func (m *Machine) SendPhase(msgs []Message) {
	clear(m.sent)
	copy(m.arrivals, m.clocks)
	for _, msg := range msgs {
		m.check(msg.From)
		m.check(msg.To)
		checkWords(msg.Words)
		if msg.From == msg.To {
			continue
		}
		depart := m.clocks[msg.From] + float64(m.sent[msg.From])*m.cfg.Alpha
		m.sent[msg.From]++
		arrive := depart + m.cfg.Alpha + m.cfg.Beta*float64(msg.Words)
		if arrive > m.arrivals[msg.To] {
			m.arrivals[msg.To] = arrive
		}
		m.stats.Messages++
		m.stats.Words += msg.Words
	}
	for i, start := range m.clocks {
		c := m.arrivals[i]
		if occupied := start + float64(m.sent[i])*m.cfg.Alpha; occupied > c {
			c = occupied
		}
		if c > start {
			m.clocks[i] = c
		}
	}
}

// AdvanceTo raises processor i's clock to at least t (used to model
// waiting on an asynchronously completing operation).
func (m *Machine) AdvanceTo(i int, t float64) {
	m.check(i)
	if t > m.clocks[i] {
		m.clocks[i] = t
	}
}

// Clocks returns a copy of all processor clocks.
func (m *Machine) Clocks() []float64 {
	out := make([]float64, len(m.clocks))
	copy(out, m.clocks)
	return out
}

// PerIterTime estimates the steady-state parallel time per iteration of
// a clock trajectory — clocks[i] the MaxClock after iteration i+1 — as
// the median clock increment after the start-up transient (the first
// quarter of the increments, at least one). The median is exact for the
// uniform trajectories of CG and pipelined CG, and for the recurrence
// schedules it is robust to the occasional drift-fallback iteration (a
// blocking reduction or emergency re-anchor) that would contaminate a
// mean. NaN for fewer than two clocks.
func PerIterTime(clocks []float64) float64 {
	n := len(clocks)
	if n < 2 {
		return math.NaN()
	}
	skip := max(n/4, 1)
	deltas := make([]float64, 0, n-skip)
	for i := skip; i < n; i++ {
		deltas = append(deltas, clocks[i]-clocks[i-1])
	}
	sort.Float64s(deltas)
	m := len(deltas)
	if m%2 == 1 {
		return deltas[m/2]
	}
	return 0.5 * (deltas[m/2-1] + deltas[m/2])
}

// TotalTime is the last clock of a trajectory, the end-to-end parallel
// time including start-up. NaN for no clocks.
func TotalTime(clocks []float64) float64 {
	if len(clocks) == 0 {
		return math.NaN()
	}
	return clocks[len(clocks)-1]
}

// Allreduce charges a blocking allreduce of words words a processor by
// recursive doubling: the processors past the largest power of two
// not above P fold into that core first (a message and words additions
// each), the core exchanges and adds in log2 rounds, and the sums replay
// out to the folded tail. One batched allreduce of w words costs
// ceil(log2 P)·(Alpha + Beta·w) — batching the paper's 6k+O(1) base
// inner products into one collective is what makes their pipelined
// computation affordable.
func (m *Machine) Allreduce(words int) {
	checkWords(words)
	p := m.cfg.P
	core := 1
	for core*2 <= p {
		core *= 2
	}
	for i := core; i < p; i++ {
		m.Send(i, i-core, words)
		m.Compute(i-core, words)
	}
	for gap := 1; gap < core; gap <<= 1 {
		for i := 0; i < core; i++ {
			if partner := i ^ gap; partner > i {
				m.Exchange(i, partner, words)
				m.Compute(i, words)
				m.Compute(partner, words)
			}
		}
	}
	for i := core; i < p; i++ {
		m.Send(i-core, i, words)
	}
}

// Handle is an allreduce in flight: the clock at which each processor
// holds its result.
type Handle struct{ done []float64 }

// IAllreduce issues a words-wide allreduce into h without blocking. It
// runs on a copy of the clocks — a communication co-processor, or
// network progress overlapped with local work — so its messages and
// additions count now, while no processor's clock moves until Wait.
// This is the machinery behind the paper's Figure 1: inner products
// issued at iteration n-k complete during the following k iterations.
// h's storage is reused from issue to issue.
func (m *Machine) IAllreduce(h *Handle, words int) {
	checkWords(words) // before the swap, so a refusal leaves m whole
	primary := m.clocks
	h.done = append(h.done[:0], primary...)
	m.clocks = h.done // the blocking schedule, run on the copy
	m.Allreduce(words)
	m.clocks = primary
}

// Wait blocks every processor on h: a clock behind the reduction's
// completion advances to it; a clock past it (the reduction finished
// during local work) does not move.
func (m *Machine) Wait(h *Handle) {
	for i, t := range h.done {
		m.AdvanceTo(i, t)
	}
}
