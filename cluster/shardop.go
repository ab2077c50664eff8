package cluster

import (
	"errors"
	"fmt"
	"time"

	"vrcg/cluster/wire"
	"vrcg/internal/engine"
	"vrcg/precond"
	"vrcg/solve"
)

// This file is the worker's side of a distributed solve. There is no
// method code in it: a worker wraps its shard as one row block of the
// placed operator (shardOp, an engine.RowBlock) and runs the registry's
// kernel on it through solve.Solver, exactly as a single process would
// run it on the whole operator. The kernel's matvecs become one batched
// halo exchange per neighbor plus the local product, and every inner
// product it takes becomes a partial sum the coordinator combines — so
// a schedule keeps on the wire the synchronization structure it has in
// the engine: cg and pcg block on two allreduce rounds per iteration,
// gropp hides one of its two behind the w = A r matvec, pipecg's single
// fused round is in flight during the next halo exchange and matvec,
// and sstep pays two per block of s iterations.

// errAborted ends a solve silently (the coordinator initiated the
// abort and is not waiting for a reply).
var errAborted = errors.New("cluster: solve aborted")

// shardOp is one worker's row block of a placed operator for the
// duration of one solve, and that solve's transport state. It is used
// by the solve goroutine only.
type shardOp struct {
	w    *Worker
	s    *workerSolve
	ws   *workerShard
	send func(byte, *wire.Enc) error

	haloSeq uint64
	redSeq  uint64
	x       []float64 // matvec input, [owned | halo]
	gather  []float64
	timer   *time.Timer
	// err is the first transport failure; every later call returns at
	// once and the engine driver ends the solve with it.
	err error

	phases   phaseSet
	lastIter time.Time
}

var _ engine.RowBlock = (*shardOp)(nil)

// Dim is the number of rows this worker owns: the order of the system
// as its kernel sees it.
func (op *shardOp) Dim() int { return op.ws.sh.NLocal() }

// Err implements engine.RowBlock.
func (op *shardOp) Err() error { return op.err }

// Observe is the solve's monitor: it times whole iterations.
func (op *shardOp) Observe(int, float64) bool {
	now := time.Now()
	op.phases.observe(phaseIter, now.Sub(op.lastIter))
	op.lastIter = now
	return true
}

// runSolve executes one distributed solve and reports Done or Err on
// the control connection. Aborts exit silently.
func (w *Worker) runSolve(s *workerSolve, ws *workerShard, m *solveMsg, send func(byte, *wire.Enc) error) {
	op := newShardOp(w, s, ws, send)
	res, err := op.solve(m)
	if errors.Is(err, errAborted) {
		return
	}
	if err != nil && !errors.Is(err, solve.ErrNotConverged) {
		code, detail := codeFromErr(err)
		ee := &errMsg{SolveID: s.id, Code: code, Detail: detail}
		if serr := send(wire.MsgErr, ee.encode()); serr != nil {
			w.logf("worker: report solve error: %v", serr)
		}
		return
	}
	done := &doneMsg{
		SolveID:    s.id,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		ResNorm:    res.ResidualNorm,
		X:          res.X,
		Stats: runStats{
			MatVecs:       uint64(res.Stats.MatVecs),
			InnerProducts: uint64(res.Stats.InnerProducts),
			VectorUpdates: uint64(res.Stats.VectorUpdates),
			PrecondSolves: uint64(res.Stats.PrecondSolves),
		},
		Phases: op.phases,
	}
	if serr := send(wire.MsgDone, done.encode()); serr != nil {
		w.logf("worker: report done: %v", serr)
	}
}

// newShardOp sets up one solve's row block. The iterate is [owned |
// halo] whenever a neighbour writes into it, even a batch of no values.
func newShardOp(w *Worker, s *workerSolve, ws *workerShard, send func(byte, *wire.Enc) error) *shardOp {
	op := &shardOp{w: w, s: s, ws: ws, send: send, lastIter: time.Now()}
	if ws.sh.HaloN > 0 || len(ws.recvs) > 0 {
		op.x = make([]float64, ws.sh.NLocal()+ws.sh.HaloN)
	}
	return op
}

// solve runs the registry's kernel for m.Method on this row block. The
// engine's defaults apply as in a single-process solve, except that the
// iteration cap defaults to 10x the global order, not the block's.
func (op *shardOp) solve(m *solveMsg) (*solve.Result, error) {
	if !solve.MethodCaps(m.Method).Sharded {
		return nil, &solveErr{code: codeUnknownMethod, detail: m.Method}
	}
	maxIter := m.MaxIter
	if maxIter == 0 {
		maxIter = 10 * op.ws.nGlobal
	}
	opts := []solve.Option{solve.WithTol(m.Tol), solve.WithMaxIter(maxIter), solve.WithMonitor(op)}
	if m.Precond != "" {
		p, err := op.ws.precondFor(m.Precond)
		if err != nil {
			return nil, err
		}
		opts = append(opts, solve.WithPreconditioner(p))
	}
	return solve.MustNew(m.Method).Solve(op, m.B, opts...)
}

// precondFor returns the cached block-Jacobi / additive-Schwarz local:
// the named precond package preconditioner built on this shard's
// diagonal block. With the "jacobi" local the block preconditioner
// equals global Jacobi exactly, so pcg+jacobi matches the
// single-process solve iteration for iteration.
func (ws *workerShard) precondFor(name string) (precond.Preconditioner, error) {
	if p := ws.pre[name]; p != nil {
		return p, nil
	}
	p, err := precond.ByName(name, ws.diagBlock())
	if err != nil {
		return nil, &solveErr{code: codeBadOption, detail: err.Error()}
	}
	ws.pre[name] = p
	return p, nil
}

// armTimer (re)arms the solve's shared timeout timer (go.mod is past
// 1.23: a reset timer delivers no stale tick, an abandoned one is
// collected).
func (op *shardOp) armTimer() {
	if op.timer == nil {
		op.timer = time.NewTimer(op.w.cfg.HaloTimeout)
		return
	}
	op.timer.Reset(op.w.cfg.HaloTimeout)
}

// PostSums implements engine.RowBlock: it ships this worker's partial
// sums to the coordinator without waiting; CollectSums is the wait.
func (op *shardOp) PostSums(vals []float64) {
	if op.err != nil {
		return
	}
	op.redSeq++
	m := reduceMsg{SolveID: op.s.id, Seq: op.redSeq, Vals: vals}
	if err := op.send(wire.MsgPartials, m.encode()); err != nil {
		op.err = &solveErr{code: codeInternal, detail: "send partials: " + err.Error()}
	}
}

// CollectSums implements engine.RowBlock: it blocks until the
// coordinator's combined sums arrive, recording the blocked time as the
// reduction phase.
func (op *shardOp) CollectSums(dst []float64) {
	if op.err != nil {
		return
	}
	start := time.Now()
	op.armTimer()
	select {
	case vals := <-op.s.combined:
		if len(vals) != len(dst) {
			op.err = &solveErr{code: codeInternal, detail: fmt.Sprintf("combined arity %d want %d", len(vals), len(dst))}
			return
		}
		copy(dst, vals)
	case <-op.s.abort:
		op.err = errAborted
		return
	case <-op.timer.C:
		op.err = &solveErr{code: codeInternal, detail: "allreduce timeout"}
		return
	}
	op.phases.observe(phaseReduction, time.Since(start))
}

// recvFrom takes the next halo frame for (this solve, current haloSeq)
// from one peer, skipping stale frames and stashing frames addressed
// to a newer solve.
func (op *shardOp) recvFrom(peer string) (haloFrame, error) {
	if f, ok := op.w.stashTake(peer, op.s.id, op.haloSeq); ok {
		return f, nil
	}
	ch := op.w.inChan(peer)
	op.armTimer()
	for {
		select {
		case f := <-ch:
			switch {
			case f.solveID < op.s.id || (f.solveID == op.s.id && f.seq < op.haloSeq):
				continue // stale frame from an aborted/earlier exchange
			case f.solveID > op.s.id:
				// A retry started on the peers while this solve drains
				// its abort: park the frame for the successor.
				op.w.stashPut(peer, f)
				return haloFrame{}, errAborted
			case f.seq != op.haloSeq:
				return haloFrame{}, &solveErr{code: codeInternal,
					detail: fmt.Sprintf("halo seq %d from %s, want %d", f.seq, peer, op.haloSeq)}
			}
			return f, nil
		case <-op.s.abort:
			return haloFrame{}, errAborted
		case <-op.timer.C:
			return haloFrame{}, &solveErr{code: codeInternal, detail: "halo timeout waiting on " + peer}
		}
	}
}

// halo runs one batched exchange for the matvec input x (the owned
// entries): one gathered message to each neighbor, one contiguous copy
// from each neighbor into the halo region of op.x.
func (op *shardOp) halo(x []float64) error {
	start := time.Now()
	op.haloSeq++
	for i := range op.ws.sends {
		snd := &op.ws.sends[i]
		m := reduceMsg{SolveID: op.s.id, Seq: op.haloSeq, Vals: op.gatherFor(snd, x)}
		if err := snd.link.sendHalo(&m); err != nil {
			return &solveErr{code: codeInternal, detail: "halo send: " + err.Error()}
		}
	}
	for _, rv := range op.ws.recvs {
		f, err := op.recvFrom(rv.FromID)
		if err != nil {
			return err
		}
		if len(f.vals) != rv.Count {
			return &solveErr{code: codeInternal,
				detail: fmt.Sprintf("halo batch %d values from %s, want %d", len(f.vals), rv.FromID, rv.Count)}
		}
		copy(op.haloRegion(rv), f.vals)
	}
	op.phases.observe(phaseHalo, time.Since(start))
	return nil
}

// gatherFor packs the owned entries of x that snd's neighbour reads, in
// its order, into the reused gather buffer.
func (op *shardOp) gatherFor(snd *wsSend, x []float64) []float64 {
	buf := op.gather[:0]
	for _, li := range snd.local {
		buf = append(buf, x[li])
	}
	op.gather = buf
	return buf
}

// haloRegion is where rv's batch lands in the iterate.
func (op *shardOp) haloRegion(rv placeRecv) []float64 {
	nl := op.ws.sh.NLocal()
	return op.x[nl+rv.Off : nl+rv.Off+rv.Count]
}

// MulVec computes this block's rows of A x: the halo exchange for x,
// then the local shard product.
func (op *shardOp) MulVec(dst, x []float64) {
	if op.err != nil {
		return
	}
	if len(op.ws.sends) > 0 || len(op.ws.recvs) > 0 {
		if op.err = op.halo(x); op.err != nil {
			return
		}
	}
	if op.x != nil {
		copy(op.x, x)
		x = op.x
	}
	start := time.Now()
	op.ws.sh.MulVec(dst, x)
	op.phases.observe(phaseSpMV, time.Since(start))
}
