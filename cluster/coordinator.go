package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"time"

	"vrcg/cluster/wire"
	"vrcg/solve"
	"vrcg/sparse"
)

// CoordinatorConfig tunes the fleet controller.
type CoordinatorConfig struct {
	// HeartbeatInterval is the ping cadence per worker; zero means 1s.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many silent intervals mark a worker dead;
	// zero means 3.
	HeartbeatMisses int
	// DialTimeout bounds worker connection attempts; zero means 5s.
	DialTimeout time.Duration
	// PlaceTimeout bounds one shard placement ack; zero means 60s.
	PlaceTimeout time.Duration
	// SolveRetries is how many times a solve is retried after losing a
	// worker mid-flight (each retry re-places the operator across the
	// survivors); zero means 2.
	SolveRetries int
	// MaxPayload bounds incoming frames; zero applies the wire default.
	MaxPayload int
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.PlaceTimeout <= 0 {
		c.PlaceTimeout = 60 * time.Second
	}
	if c.SolveRetries <= 0 {
		c.SolveRetries = 2
	}
	return c
}

// Coordinator owns a fleet of workers: it places operators (sharding
// rows with the nnz-balanced partition and shipping each worker its
// shard plus halo schedule), drives distributed solves (combining every
// worker's inner-product partials into one global sum per reduction),
// and keeps the fleet available by re-placing operators across the
// survivors when a worker dies.
type Coordinator struct {
	cfg CoordinatorConfig

	mu      sync.Mutex
	workers map[string]*remoteWorker
	order   []string
	nextID  int
	ops     map[string]*clusterOp
	gen     uint64
	active  *solveRun
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup // every worker's readLoop and heartbeat

	// solveMu serializes placements and solves fleet-wide: workers run
	// one solve at a time by design (the fleet is the parallelism).
	solveMu   sync.Mutex
	nextSolve uint64

	met *fleetMetrics

	// testAfterCombine, when set, runs after each broadcast combined
	// reduction — the deterministic injection point for worker-kill
	// tests.
	testAfterCombine func(solveID, seq uint64)
}

// remoteWorker is the coordinator's handle on one fleet member.
type remoteWorker struct {
	id   string
	addr string
	conn net.Conn

	wmu sync.Mutex // serializes writes

	stateMu  sync.Mutex
	alive    bool
	lastPong time.Time
	pingSeq  uint64
	acks     map[string]chan error // pending placements keyed op/gen
}

func (rw *remoteWorker) send(typ byte, e *wire.Enc) error {
	rw.wmu.Lock()
	defer rw.wmu.Unlock()
	return writeMsg(rw.conn, typ, e)
}

func (rw *remoteWorker) isAlive() bool {
	rw.stateMu.Lock()
	defer rw.stateMu.Unlock()
	return rw.alive
}

// clusterOp is one placed operator: the full matrix is retained so the
// coordinator can re-partition across survivors after a worker death
// and verify true residuals without another network round trip.
type clusterOp struct {
	name           string
	a              *sparse.CSR
	gen            uint64
	plan           *Plan
	assign         []string // shard index -> worker id
	initialWorkers int
}

// solveRun is the coordinator-side state of one solve attempt.
type solveRun struct {
	id       uint64
	ch       chan runEvent
	finished chan struct{}
}

const (
	evPartial = iota
	evDone
	evErr
	evDead
)

type runEvent struct {
	kind     int
	workerID string
	solveID  uint64
	seq      uint64
	vals     []float64
	done     doneMsg
	code     string
	detail   string
}

// errWorkerLost triggers the re-place-and-retry path inside Solve.
var errWorkerLost = errors.New("cluster: worker lost mid-solve")

// NewCoordinator returns an empty-fleet coordinator. Add workers with
// AddWorker.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	return &Coordinator{
		cfg:     cfg.withDefaults(),
		workers: make(map[string]*remoteWorker),
		ops:     make(map[string]*clusterOp),
		done:    make(chan struct{}),
		met:     newFleetMetrics(),
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// AddWorker dials a worker, registers it in the fleet under a fresh id,
// and starts its reader and heartbeat. Operators placed before the
// worker joined keep their existing placement; new placements (and
// re-placements after a death) use the grown fleet.
func (c *Coordinator) AddWorker(addr string) (string, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", ErrClosed
	}
	id := fmt.Sprintf("w%d", c.nextID)
	c.nextID++
	c.mu.Unlock()

	conn, err := net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
	if err != nil {
		return "", fmt.Errorf("cluster: dial worker %s: %w", addr, err)
	}
	hello := &helloMsg{Version: wire.Version, WorkerID: id}
	if err := writeMsg(conn, wire.MsgHello, hello.encode()); err != nil {
		conn.Close()
		return "", err
	}
	conn.SetReadDeadline(time.Now().Add(c.cfg.DialTimeout))
	typ, payload, err := wire.ReadFrame(conn, c.cfg.MaxPayload)
	if err != nil {
		conn.Close()
		return "", fmt.Errorf("cluster: worker %s handshake: %w", addr, err)
	}
	wire.PutBuf(payload)
	conn.SetReadDeadline(time.Time{})
	if typ != wire.MsgHelloAck {
		conn.Close()
		return "", fmt.Errorf("%w: worker %s answered hello with frame 0x%02x", wire.ErrFrame, addr, typ)
	}

	rw := &remoteWorker{
		id: id, addr: addr, conn: conn,
		alive: true, lastPong: time.Now(),
		acks: make(map[string]chan error),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return "", ErrClosed
	}
	c.workers[id] = rw
	c.order = append(c.order, id)
	c.wg.Add(2) // under mu with the closed check, so before Close waits
	c.mu.Unlock()

	go c.readLoop(rw)
	go c.heartbeat(rw)
	return id, nil
}

// markDead removes a worker from the fleet (once) and notifies any
// in-flight solve.
func (c *Coordinator) markDead(rw *remoteWorker, cause error) {
	rw.stateMu.Lock()
	if !rw.alive {
		rw.stateMu.Unlock()
		return
	}
	rw.alive = false
	for _, ch := range rw.acks {
		select {
		case ch <- fmt.Errorf("cluster: worker %s died: %v", rw.id, cause):
		default:
		}
	}
	rw.stateMu.Unlock()
	rw.conn.Close()

	c.mu.Lock()
	delete(c.workers, rw.id)
	for i, id := range c.order {
		if id == rw.id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	c.logf("cluster: worker %s (%s) removed: %v", rw.id, rw.addr, cause)
	c.forward(runEvent{kind: evDead, workerID: rw.id})
}

// forward routes one event to the active solve, if any.
func (c *Coordinator) forward(ev runEvent) {
	c.mu.Lock()
	run := c.active
	c.mu.Unlock()
	if run == nil {
		return
	}
	if ev.solveID != 0 && ev.solveID != run.id {
		return
	}
	select {
	case run.ch <- ev:
	case <-run.finished:
	}
}

// readLoop is one worker connection's reader: it decodes frames and
// routes them (pongs to the heartbeat state, acks to pending
// placements, data-plane frames to the active solve).
func (c *Coordinator) readLoop(rw *remoteWorker) {
	defer c.wg.Done()
	for {
		typ, payload, err := wire.ReadFrame(rw.conn, c.cfg.MaxPayload)
		if err != nil {
			c.markDead(rw, err)
			return
		}
		switch typ {
		case wire.MsgPong:
			if _, derr := decodeSeq(payload); derr == nil {
				rw.stateMu.Lock()
				rw.lastPong = time.Now()
				rw.stateMu.Unlock()
			}
		case wire.MsgPlaceAck:
			if m, derr := decodeAck(payload); derr == nil {
				key := fmt.Sprintf("%s/%d", m.OpID, m.Gen)
				rw.stateMu.Lock()
				if ch := rw.acks[key]; ch != nil {
					select {
					case ch <- nil:
					default:
					}
				}
				rw.stateMu.Unlock()
			}
		case wire.MsgPartials:
			var m reduceMsg
			if derr := decodeReduce(payload, &m); derr == nil {
				c.forward(runEvent{
					kind: evPartial, workerID: rw.id,
					solveID: m.SolveID, seq: m.Seq, vals: m.Vals,
				})
			}
		case wire.MsgDone:
			if m, derr := decodeDone(payload); derr == nil {
				c.forward(runEvent{kind: evDone, workerID: rw.id, solveID: m.SolveID, done: m})
			}
		case wire.MsgErr:
			if m, derr := decodeErr(payload); derr == nil {
				if m.SolveID == 0 {
					// Placement-time failure: fail every pending ack.
					rw.stateMu.Lock()
					for _, ch := range rw.acks {
						select {
						case ch <- errFromCode(m.Code, m.Detail):
						default:
						}
					}
					rw.stateMu.Unlock()
				} else {
					c.forward(runEvent{
						kind: evErr, workerID: rw.id,
						solveID: m.SolveID, code: m.Code, detail: m.Detail,
					})
				}
			}
		default:
			c.logf("cluster: worker %s sent unexpected frame 0x%02x", rw.id, typ)
		}
		wire.PutBuf(payload)
	}
}

// heartbeat pings one worker on the configured cadence and declares it
// dead after HeartbeatMisses silent intervals.
func (c *Coordinator) heartbeat(rw *remoteWorker) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		if !rw.isAlive() {
			return
		}
		rw.stateMu.Lock()
		rw.pingSeq++
		seq := rw.pingSeq
		silent := time.Since(rw.lastPong)
		rw.stateMu.Unlock()
		if silent > time.Duration(c.cfg.HeartbeatMisses)*c.cfg.HeartbeatInterval {
			c.markDead(rw, fmt.Errorf("no heartbeat for %v", silent.Round(time.Millisecond)))
			return
		}
		if err := rw.send(wire.MsgPing, (&seqMsg{V: seq}).encode()); err != nil {
			c.markDead(rw, err)
			return
		}
	}
}

// liveWorkers snapshots the fleet in join order.
func (c *Coordinator) liveWorkers() []*remoteWorker {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*remoteWorker, 0, len(c.order))
	for _, id := range c.order {
		if rw := c.workers[id]; rw != nil {
			out = append(out, rw)
		}
	}
	return out
}

func (c *Coordinator) worker(id string) *remoteWorker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[id]
}

// Workers reports current fleet membership.
func (c *Coordinator) Workers() []WorkerSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerSnapshot, 0, len(c.order))
	for _, id := range c.order {
		rw := c.workers[id]
		if rw == nil {
			continue
		}
		shards := 0
		for _, op := range c.ops {
			for _, wid := range op.assign {
				if wid == id {
					shards++
					break
				}
			}
		}
		out = append(out, WorkerSnapshot{ID: id, Addr: rw.addr, Alive: rw.isAlive(), Shards: shards})
	}
	return out
}

// Operators lists placed operator names.
func (c *Coordinator) Operators() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.ops))
	for name := range c.ops {
		out = append(out, name)
	}
	return out
}

// Metrics returns the fleet-aggregated view for /metrics.
func (c *Coordinator) Metrics() MetricsSnapshot {
	var s MetricsSnapshot
	s.Workers = c.Workers()
	c.mu.Lock()
	s.Operators = len(c.ops)
	c.mu.Unlock()
	c.met.snapshotInto(&s)
	return s
}

// Place shards an operator across the current fleet. The name must be
// unused; the matrix is retained coordinator-side for re-placement and
// residual verification.
func (c *Coordinator) Place(name string, a *sparse.CSR) error {
	if name == "" {
		return fmt.Errorf("cluster: empty operator name")
	}
	if a == nil || a.Dim() == 0 {
		return fmt.Errorf("cluster: empty operator %q", name)
	}
	c.solveMu.Lock()
	defer c.solveMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if _, ok := c.ops[name]; ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrOperatorExists, name)
	}
	c.mu.Unlock()

	op := &clusterOp{name: name, a: a}
	if err := c.place(op); err != nil {
		return err
	}
	c.mu.Lock()
	c.ops[name] = op
	c.mu.Unlock()
	return nil
}

// Drop removes a placed operator fleet-wide.
func (c *Coordinator) Drop(name string) error {
	c.solveMu.Lock()
	defer c.solveMu.Unlock()
	c.mu.Lock()
	op := c.ops[name]
	delete(c.ops, name)
	c.mu.Unlock()
	if op == nil {
		return fmt.Errorf("%w: %s", ErrUnknownOperator, name)
	}
	for _, rw := range c.liveWorkers() {
		if err := rw.send(wire.MsgDrop, (&strMsg{S: name}).encode()); err != nil {
			c.markDead(rw, err)
		}
	}
	return nil
}

// place partitions op.a across the live fleet and ships every shard,
// retrying across deaths until a consistent placement lands or no
// workers remain. Callers hold solveMu.
func (c *Coordinator) place(op *clusterOp) error {
	for {
		live := c.liveWorkers()
		if len(live) == 0 {
			return ErrNoWorkers
		}
		plan, err := BuildPlan(op.a, len(live))
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.gen++
		gen := c.gen
		c.mu.Unlock()
		assign := live[:len(plan.Shards)]
		if err := c.shipPlacement(op.name, gen, plan, assign); err != nil {
			if errors.Is(err, errWorkerLost) {
				c.met.recordReplacement()
				c.logf("cluster: re-placing %s after loss: %v", op.name, err)
				continue
			}
			return err
		}
		op.plan = plan
		op.gen = gen
		op.assign = make([]string, len(assign))
		for i, rw := range assign {
			op.assign[i] = rw.id
		}
		if op.initialWorkers == 0 {
			op.initialWorkers = len(assign)
		}
		return nil
	}
}

// shipPlacement sends every shard and waits for all acks.
func (c *Coordinator) shipPlacement(name string, gen uint64, plan *Plan, assign []*remoteWorker) error {
	key := fmt.Sprintf("%s/%d", name, gen)
	ackCh := make(chan error, len(assign))
	for _, rw := range assign {
		rw.stateMu.Lock()
		rw.acks[key] = ackCh
		rw.stateMu.Unlock()
	}
	defer func() {
		for _, rw := range assign {
			rw.stateMu.Lock()
			delete(rw.acks, key)
			rw.stateMu.Unlock()
		}
	}()

	for i, sh := range plan.Shards {
		msg := &placeMsg{
			OpID: name, Gen: gen, NGlobal: plan.N,
			Row0: sh.Row0, Row1: sh.Row1,
			RowPtr: sh.RowPtr, Cols: sh.Cols, Vals: sh.Vals,
			HaloN: sh.HaloN,
		}
		for _, rv := range sh.Recv {
			msg.Recv = append(msg.Recv, placeRecv{
				FromID: assign[rv.From].id, Off: rv.Off, Count: rv.Count,
			})
		}
		for _, snd := range sh.Send {
			msg.Send = append(msg.Send, placeSend{
				ToID: assign[snd.To].id, ToAddr: assign[snd.To].addr, Local: snd.Local,
			})
		}
		if err := assign[i].send(wire.MsgPlace, msg.encode()); err != nil {
			c.markDead(assign[i], err)
			return fmt.Errorf("%w: shipping shard %d: %v", errWorkerLost, i, err)
		}
	}

	deadline := time.NewTimer(c.cfg.PlaceTimeout)
	defer deadline.Stop()
	for acked := 0; acked < len(assign); {
		select {
		case err := <-ackCh:
			if err != nil {
				return fmt.Errorf("%w: %v", errWorkerLost, err)
			}
			acked++
		case <-deadline.C:
			return fmt.Errorf("cluster: placement of %s timed out (%d/%d acks)", name, acked, len(assign))
		}
	}
	return nil
}

// SolveOpts carry the per-solve options of a distributed solve.
type SolveOpts struct {
	// Tol is the relative residual tolerance (engine default 1e-10
	// when zero).
	Tol float64
	// MaxIter caps iterations (engine default 10n when zero).
	MaxIter int
	// Precond names the subdomain local ("identity", "jacobi", "ssor",
	// "ic0") applied block-Jacobi-style for method "pcg".
	Precond string
}

// Result is the outcome of one distributed solve.
type Result struct {
	Method string
	X      []float64
	// Iterations is the global iteration count (identical on every
	// worker: all convergence decisions use coordinator-combined
	// scalars).
	Iterations int
	Converged  bool
	// ResidualNorm is the recurrence residual at exit;
	// TrueResidualNorm is ||b - A x|| recomputed coordinator-side from
	// the retained operator.
	ResidualNorm     float64
	TrueResidualNorm float64
	// Workers is how many shards participated; Degraded reports that
	// this is fewer than the operator's original placement (capacity
	// lost to worker deaths); Retries counts mid-solve re-placements.
	Workers  int
	Degraded bool
	Retries  int
	Stats    runStats
	// Phases holds this solve's fleet-merged per-iteration latency
	// histograms keyed spmv/halo/reduction/iteration.
	Phases map[string]solve.HistSnapshot
}

// shardedMethods lists what a fleet solves with: the registry methods
// whose kernels take every reduction through the engine workspace
// (solve.Caps.Sharded), which is all a worker needs to run one on its
// row block.
func shardedMethods() []string {
	var names []string
	for _, name := range solve.Methods() {
		if solve.MethodCaps(name).Sharded {
			names = append(names, name)
		}
	}
	return names
}

// Solve runs one distributed solve of the placed operator against b by
// a registry method that declares solve.Caps.Sharded. If a worker dies
// mid-solve the operator is re-placed across the survivors and the
// solve retried (capacity degrades; availability does not), up to
// SolveRetries times.
func (c *Coordinator) Solve(ctx context.Context, name, method string, b []float64, opts SolveOpts) (*Result, error) {
	if !solve.MethodCaps(method).Sharded {
		return nil, fmt.Errorf("%w: %q (distributed methods: %s)", solve.ErrUnknownMethod, method, strings.Join(shardedMethods(), ", "))
	}
	if opts.Tol < 0 || opts.MaxIter < 0 {
		return nil, fmt.Errorf("%w: tol %g maxiter %d", solve.ErrBadOption, opts.Tol, opts.MaxIter)
	}
	c.solveMu.Lock()
	defer c.solveMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	op := c.ops[name]
	c.mu.Unlock()
	if op == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownOperator, name)
	}
	if len(b) != op.a.Dim() {
		return nil, fmt.Errorf("%w: rhs length %d for operator order %d", solve.ErrDim, len(b), op.a.Dim())
	}

	retries := 0
	for {
		if !c.placementLive(op) {
			c.met.recordReplacement()
			if err := c.place(op); err != nil {
				c.met.recordFailure()
				if errors.Is(err, ErrNoWorkers) {
					return nil, err
				}
				return nil, fmt.Errorf("%w: %v", ErrDegraded, err)
			}
		}
		res, phases, err := c.solveAttempt(ctx, op, method, b, opts)
		if errors.Is(err, errWorkerLost) {
			retries++
			if retries > c.cfg.SolveRetries {
				c.met.recordFailure()
				return nil, fmt.Errorf("%w: solve lost workers %d times", ErrDegraded, retries)
			}
			c.logf("cluster: retrying solve of %s (attempt %d) after worker loss", name, retries+1)
			continue
		}
		if err != nil {
			c.met.recordFailure()
			return nil, err
		}
		res.Method = method
		res.Retries = retries
		res.Degraded = len(op.assign) < op.initialWorkers
		c.met.recordSolve(method, phases, uint64(retries))
		if !res.Converged {
			// Same contract as the solve package: a usable Result
			// alongside a sentinel-wrapped error.
			return res, fmt.Errorf("cluster: %s stopped at iteration %d with residual %.6e: %w",
				method, res.Iterations, res.ResidualNorm, solve.ErrNotConverged)
		}
		return res, nil
	}
}

// placementLive reports whether every assigned worker is still in the
// fleet.
func (c *Coordinator) placementLive(op *clusterOp) bool {
	if op.plan == nil || len(op.assign) == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range op.assign {
		if c.workers[id] == nil {
			return false
		}
	}
	return true
}

// redAcc holds one reduction's partials by shard until the last one
// lands: they are added in shard order, so the combined sums — and with
// them iteration counts and the solution — do not depend on the order
// the packets arrived in.
type redAcc struct {
	parts [][]float64
	arity int
	n     int
}

// solveAttempt runs one attempt: ship the solve, combine partials,
// broadcast sums, collect dones, assemble x.
func (c *Coordinator) solveAttempt(ctx context.Context, op *clusterOp, method string, b []float64, opts SolveOpts) (*Result, []*phaseSet, error) {
	c.mu.Lock()
	c.nextSolve++
	run := &solveRun{
		id:       c.nextSolve,
		ch:       make(chan runEvent, 8*len(op.assign)+16),
		finished: make(chan struct{}),
	}
	c.active = run
	c.mu.Unlock()
	defer func() {
		close(run.finished)
		c.mu.Lock()
		if c.active == run {
			c.active = nil
		}
		c.mu.Unlock()
	}()

	participants := make(map[string]*remoteWorker, len(op.assign))
	shardOf := make(map[string]int, len(op.assign))
	for i, id := range op.assign {
		rw := c.worker(id)
		if rw == nil {
			c.abortAll(participants, run.id)
			return nil, nil, fmt.Errorf("%w: %s gone before start", errWorkerLost, id)
		}
		participants[id] = rw
		shardOf[id] = i
		sh := op.plan.Shards[i]
		msg := &solveMsg{
			SolveID: run.id, OpID: op.name, Gen: op.gen,
			Method: method, Precond: opts.Precond,
			Tol: opts.Tol, MaxIter: opts.MaxIter,
			B: b[sh.Row0:sh.Row1],
		}
		if err := rw.send(wire.MsgSolve, msg.encode()); err != nil {
			c.markDead(rw, err)
			c.abortAll(participants, run.id)
			return nil, nil, fmt.Errorf("%w: starting on %s: %v", errWorkerLost, id, err)
		}
	}

	expected := len(op.assign)
	accs := make(map[uint64]*redAcc)
	dones := make(map[string]*doneMsg, expected)
	for {
		var ev runEvent
		select {
		case ev = <-run.ch:
		case <-ctx.Done():
			c.abortAll(participants, run.id)
			return nil, nil, ctx.Err()
		}
		// Only a participant's frames count: a live worker that holds no
		// shard of this operator has no say in its solve.
		shard, ours := shardOf[ev.workerID]
		if !ours {
			continue
		}
		switch ev.kind {
		case evPartial:
			a := accs[ev.seq]
			if a == nil {
				a = &redAcc{parts: make([][]float64, expected), arity: len(ev.vals)}
				accs[ev.seq] = a
			}
			if len(ev.vals) == 0 || len(ev.vals) != a.arity || a.parts[shard] != nil {
				c.abortAll(participants, run.id)
				return nil, nil, fmt.Errorf("%w: duplicate or mismatched partial from %s", wire.ErrFrame, ev.workerID)
			}
			a.parts[shard] = ev.vals
			a.n++
			if a.n == expected {
				delete(accs, ev.seq)
				sums := a.parts[0]
				for _, part := range a.parts[1:] {
					for i, v := range part {
						sums[i] += v
					}
				}
				cm := reduceMsg{SolveID: run.id, Seq: ev.seq, Vals: sums}
				for id, rw := range participants {
					if err := rw.send(wire.MsgCombined, cm.encode()); err != nil {
						c.markDead(rw, err)
						c.abortAll(participants, run.id)
						return nil, nil, fmt.Errorf("%w: broadcasting to %s: %v", errWorkerLost, id, err)
					}
				}
				if c.testAfterCombine != nil {
					c.testAfterCombine(run.id, ev.seq)
				}
			}
		case evDone:
			d := ev.done
			dones[ev.workerID] = &d
			if len(dones) == expected {
				return c.assemble(op, b, dones)
			}
		case evErr:
			c.abortAll(participants, run.id)
			return nil, nil, errFromCode(ev.code, ev.detail)
		case evDead:
			c.abortAll(participants, run.id)
			return nil, nil, fmt.Errorf("%w: %s died mid-solve", errWorkerLost, ev.workerID)
		}
	}
}

// abortAll tells every live participant to cancel the solve.
func (c *Coordinator) abortAll(participants map[string]*remoteWorker, solveID uint64) {
	for _, rw := range participants {
		if !rw.isAlive() {
			continue
		}
		if err := rw.send(wire.MsgAbort, (&seqMsg{V: solveID}).encode()); err != nil {
			c.markDead(rw, err)
		}
	}
}

// assemble stitches worker shards of x into the global solution and
// verifies the true residual against the retained operator.
func (c *Coordinator) assemble(op *clusterOp, b []float64, dones map[string]*doneMsg) (*Result, []*phaseSet, error) {
	n := op.a.Dim()
	res := &Result{X: make([]float64, n), Workers: len(op.assign), Converged: true}
	phases := make([]*phaseSet, 0, len(dones))
	merged := &phaseSet{}
	for i, id := range op.assign {
		d := dones[id]
		sh := op.plan.Shards[i]
		if d == nil {
			return nil, nil, fmt.Errorf("%w: no result from worker %s", wire.ErrFrame, id)
		}
		if len(d.X) != sh.NLocal() {
			return nil, nil, fmt.Errorf("%w: worker %s returned %d rows for shard of %d",
				wire.ErrFrame, id, len(d.X), sh.NLocal())
		}
		copy(res.X[sh.Row0:sh.Row1], d.X)
		if d.Iterations > res.Iterations {
			res.Iterations = d.Iterations
		}
		res.Converged = res.Converged && d.Converged
		res.ResidualNorm = d.ResNorm
		res.Stats.MatVecs += d.Stats.MatVecs
		res.Stats.InnerProducts += d.Stats.InnerProducts
		res.Stats.VectorUpdates += d.Stats.VectorUpdates
		res.Stats.PrecondSolves += d.Stats.PrecondSolves
		phases = append(phases, &d.Phases)
		merged.merge(&d.Phases)
	}
	res.Phases = merged.snapshot()

	// True residual from the retained operator: the distributed
	// recurrence is verified against ground truth on every solve.
	ax := make([]float64, n)
	op.a.MulVec(ax, res.X)
	var ss float64
	for i := range ax {
		dlt := b[i] - ax[i]
		ss += dlt * dlt
	}
	res.TrueResidualNorm = math.Sqrt(ss)
	return res, phases, nil
}

// Close shuts the coordinator down, disconnects the fleet and returns
// once every reader and heartbeat goroutine it started has exited.
// Workers keep running (they are owned by their own processes).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	close(c.done)
	workers := make([]*remoteWorker, 0, len(c.workers))
	for _, rw := range c.workers {
		workers = append(workers, rw)
	}
	c.mu.Unlock()
	for _, rw := range workers {
		c.markDead(rw, ErrClosed)
	}
	c.wg.Wait()
	return nil
}
