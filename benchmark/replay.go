package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"vrcg/server"
	"vrcg/solve"
	"vrcg/sparse"
)

// This file replays each serve-* request in-process, one at a time:
// once through the server's handler (no network, no second process)
// and once through the solve package alone, with the operator wrapped
// in timing decorators. Handler minus solve is the server's own work
// (decode, admission, session acquire, encode); the end-to-end latency
// minus the handler is what the process boundary and the loopback
// cost, plus, on the closed-loop workloads, waiting behind the other
// client's request.

// sink is the in-process handlers' response writer: it keeps the status
// and, when asked, the body, and discards the rest.
type sink struct {
	hdr    http.Header
	status int
	keep   bool
	body   bytes.Buffer
}

func (s *sink) Header() http.Header  { return s.hdr }
func (s *sink) WriteHeader(code int) { s.status = code }
func (s *sink) Write(p []byte) (int, error) {
	if s.keep {
		return s.body.Write(p)
	}
	return len(p), nil
}

func (s *sink) reset(keep bool) {
	s.hdr, s.status, s.keep = make(http.Header), http.StatusOK, keep
	s.body.Reset()
}

// serveInProcess runs one request through h and returns how long the
// handler took.
func serveInProcess(h http.Handler, r wireReq, out *sink, keep bool) (time.Duration, error) {
	req, err := http.NewRequest(r.method, "http://in-process"+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	req.RemoteAddr = "in-process:1" // the binary path keys its affinity cache on it
	if r.contentType != "" {
		req.Header.Set("Content-Type", r.contentType)
	}
	out.reset(keep)
	start := time.Now()
	h.ServeHTTP(out, req)
	d := time.Since(start)
	if out.status >= 300 {
		return d, fmt.Errorf("in-process %s %s: HTTP %d %s", r.method, r.path, out.status, out.body.String())
	}
	return d, nil
}

// replay is what the two in-process passes over one request shape
// measured.
type replay struct {
	handlerMS   float64 // median handler time
	solveMS     float64 // median solve-package time for the same request
	selfMS      float64 // handler minus solve, paired (pairedSelfMS)
	allocsReq   float64 // heap allocations per handler call (single solve only)
	allocsSolve float64 // per solve-package call (single solve only)
	// Per solve-package call, from the decorated pass: the products'
	// count and time, and the rest of the solve (its span's self time).
	spmvCalls, spmvMS float64
	engineMS          float64
	iters             float64
}

// pairedSelfMS is the server's own time per request: the median, over
// replays of the same request, of handler time minus solve time. Taking
// the difference pair by pair, rather than of the two medians, keeps a
// slow moment of the host out of it.
func pairedSelfMS(handler, direct []time.Duration) float64 {
	diffs := make([]time.Duration, len(handler))
	for i := range diffs {
		diffs[i] = handler[i] - direct[i]
	}
	return medianMS(diffs)
}

// mallocs counts heap allocations made while fn runs.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return median(sorted(xs))
}

// spanTotals fills the per-call span figures of a replay from its
// tracer, whose solves are spans named solveSpan.
func (r *replay) spanTotals(tr *tracer, solveSpan string, calls int) {
	sum := summarizeSpans([]*tracer{tr})
	for _, name := range []string{"sparse.spmv", "sparse.spmv_t"} {
		r.spmvCalls += float64(sum[name].Count) / float64(calls)
		r.spmvMS += sum[name].TotalMS / float64(calls)
	}
	r.engineMS = sum[solveSpan].SelfMS / float64(calls)
}

const (
	replaySolves  = 400
	replayBatches = 60
	replayRegs    = 3
)

// pooledSolve is what the handlers do between decode and encode:
// acquire a pooled session under a deadline, solve every right-hand
// side, release. It returns the time taken and the iterations spent.
func pooledSolve(pool *solve.SessionPool, rhs [][]float64, tr *tracer) (time.Duration, int, error) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ps, err := pool.Acquire(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer ps.Release()
	iters := 0
	tr.begin("solve")
	if len(rhs) == 1 {
		var res *solve.Result
		if res, err = ps.Solve(rhs[0]); res != nil {
			iters = res.Iterations
		}
	} else {
		var results []solve.Result
		results, err = ps.SolveMany(rhs)
		for i := range results {
			iters += results[i].Iterations
		}
	}
	tr.end()
	return time.Since(start), iters, err
}

// replaySolve replays serve-solve's request: four operator names
// round-robin over the sixteen right-hand sides. Each round runs the
// binary handler, the plain solve, the JSON handler and the decorated
// solve back to back, so a slow second of the host lands on all four
// medians alike; the decorated solve supplies only the SpMV split.
func replaySolve(s *serveSolve) (bin, js replay, err error) {
	srv := server.New(server.Config{})
	tr := newTracer(time.Now())
	plain := make([]*solve.SessionPool, len(s.names))
	decorated := make([]*solve.SessionPool, len(s.names))
	wm := sparse.EncodeCSR(s.a)
	for i, name := range s.names {
		// One decoded copy per name, as the child holds after four uploads.
		m, err := wm.Decode()
		if err != nil {
			return bin, js, err
		}
		if err := srv.Preload(name, m); err != nil {
			return bin, js, err
		}
		if plain[i], err = solve.NewSessionPool("cg", m, solve.WithTol(libTol)); err != nil {
			return bin, js, err
		}
		if decorated[i], err = solve.NewSessionPool("cg", newTimedCSR(m, tr), solve.WithTol(libTol)); err != nil {
			return bin, js, err
		}
	}
	var out sink
	var buf []byte
	name := func(i int) string { return s.names[i%len(s.names)] }
	rhs := func(i int) [][]float64 { return s.rhs[i%serveRHS : i%serveRHS+1] }
	round := func(i int, t *[4]time.Duration) (iters int, err error) {
		buf = encodeSolveFrame(buf[:0], name(i), "cg", solveParams, rhs(i))
		if t[0], err = serveInProcess(srv, wireReq{method: http.MethodPost, path: "/v1/solve", contentType: server.BinaryContentType, body: buf}, &out, false); err != nil {
			return 0, err
		}
		if t[1], iters, err = pooledSolve(plain[i%len(plain)], rhs(i), nil); err != nil {
			return 0, err
		}
		body, err := json.Marshal(server.SolveRequest{Operator: name(i), Method: "cg", RHS: rhs(i)[0], Params: &solve.Params{Tol: libTol}})
		if err != nil {
			return 0, err
		}
		if t[2], err = serveInProcess(srv, wireReq{method: http.MethodPost, path: "/v1/solve", contentType: "application/json", body: body}, &out, false); err != nil {
			return 0, err
		}
		t[3], _, err = pooledSolve(decorated[i%len(decorated)], rhs(i), tr)
		return iters, err
	}
	var t [4]time.Duration
	for i := 0; i < solveWarm; i++ { // builds the session pools and the affinity entries
		if _, err := round(i, &t); err != nil {
			return bin, js, err
		}
	}
	tr.spans = tr.spans[:0]
	var times [4][]time.Duration
	iters := 0
	for i := 0; i < replaySolves; i++ {
		n, err := round(i, &t)
		if err != nil {
			return bin, js, err
		}
		iters += n
		for k := range times {
			times[k] = append(times[k], t[k])
		}
	}
	bin.handlerMS, bin.solveMS, js.handlerMS = medianMS(times[0]), medianMS(times[1]), medianMS(times[2])
	bin.selfMS, js.selfMS = pairedSelfMS(times[0], times[1]), pairedSelfMS(times[2], times[1])
	bin.iters = float64(iters) / replaySolves
	bin.spanTotals(tr, "solve", replaySolves)
	js.solveMS, js.iters = bin.solveMS, bin.iters

	const allocReps = 100
	bin.allocsReq = mallocs(func() {
		for i := 0; i < allocReps && err == nil; i++ {
			buf = encodeSolveFrame(buf[:0], name(i), "cg", solveParams, rhs(i))
			_, err = serveInProcess(srv, wireReq{method: http.MethodPost, path: "/v1/solve", contentType: server.BinaryContentType, body: buf}, &out, false)
		}
	}) / allocReps
	if err != nil {
		return bin, js, err
	}
	bin.allocsSolve = mallocs(func() {
		for i := 0; i < allocReps && err == nil; i++ {
			_, _, err = pooledSolve(plain[i%len(plain)], rhs(i), nil)
		}
	}) / allocReps
	return bin, js, err
}

// replayBatch replays serve-batch's request: sixteen right-hand sides
// through solve.Batch at its default width, handler and plain solve
// alternating; a second pass counts and times the products.
func replayBatch(s *serveBatch) (r replay, err error) {
	srv := server.New(server.Config{})
	if err := srv.Preload("p32", s.a); err != nil {
		return r, err
	}
	plain, err := solve.NewSessionPool("cg", s.a, solve.WithTol(libTol))
	if err != nil {
		return r, err
	}
	op := &countedCSR{CSR: s.a}
	counted, err := solve.NewSessionPool("cg", op, solve.WithTol(libTol))
	if err != nil {
		return r, err
	}
	var out sink
	req := wireReq{method: http.MethodPost, path: "/v1/solve/batch", contentType: server.BinaryContentType,
		body: encodeSolveFrame(nil, "p32", "cg", solveParams, s.rhs)}
	var handler, direct []time.Duration
	var countedTotal time.Duration
	iters := 0
	for i := -batchWarm; i < replayBatches; i++ {
		th, err := serveInProcess(srv, req, &out, false)
		if err != nil {
			return r, err
		}
		td, n, err := pooledSolve(plain, s.rhs, nil)
		if err != nil {
			return r, err
		}
		if i == -1 {
			op.calls.Store(0)
			op.ns.Store(0)
		}
		tc, _, err := pooledSolve(counted, s.rhs, nil)
		if err != nil {
			return r, err
		}
		if i >= 0 {
			handler, direct, iters = append(handler, th), append(direct, td), iters+n
			countedTotal += tc
		}
	}
	r.handlerMS, r.solveMS, r.selfMS = medianMS(handler), medianMS(direct), pairedSelfMS(handler, direct)
	r.iters = float64(iters) / replayBatches
	// The fan-out's workers multiply concurrently: their product time is
	// summed, then divided by the fan-out width to stand beside wall time.
	width := float64(min(runtime.GOMAXPROCS(0), serveRHS))
	r.spmvCalls = float64(op.calls.Load()) / replayBatches
	r.spmvMS = float64(op.ns.Load()) / 1e6 / replayBatches / width
	r.engineMS = float64(countedTotal)/1e6/replayBatches - r.spmvMS
	return r, nil
}

// countedCSR times products with atomic counters where a tracer cannot
// go: solve.Batch calls the operator from several goroutines at once.
type countedCSR struct {
	*sparse.CSR
	calls, ns atomic.Int64
}

func (c *countedCSR) MulVec(dst, x []float64) {
	start := time.Now()
	c.CSR.MulVec(dst, x)
	c.ns.Add(int64(time.Since(start)))
	c.calls.Add(1)
}

// timedRect is the rectangular operator's decorator: LSQR calls both
// products once per iteration.
type timedRect struct {
	*sparse.Rect
	tr *tracer
}

func (t timedRect) MulVec(dst, x []float64) {
	t.tr.begin("sparse.spmv")
	t.Rect.MulVec(dst, x)
	t.tr.end()
}

func (t timedRect) MulVecT(dst, x []float64) {
	t.tr.begin("sparse.spmv_t")
	t.Rect.MulVecT(dst, x)
	t.tr.end()
}

// icpReplay is replayICP's result: the step replay plus the warm-start
// evidence.
type icpReplay struct {
	replay
	coldIters, warmIters float64
}

// replayICP replays whole registrations, step by step, first through
// the in-process handler and then through solve.Sequence alone.
func replayICP(s *serveICP) (r icpReplay, err error) {
	srv := server.New(server.Config{})
	first := newRegistration(s.sc, genMisalignment(s.seed, 0))
	if err := srv.Preload(icpOperator, jacobian(first.vals)); err != nil {
		return r, err
	}
	var out sink
	var buf []byte
	var handler, direct []time.Duration
	var cold, warm []float64
	tr := newTracer(time.Now())
	iters := 0
	for k := 0; k < replayRegs; k++ {
		create, err := json.Marshal(server.SequenceCreateRequest{Operator: icpOperator, Method: "lsqr", Params: &solve.Params{Tol: icpTol}})
		if err != nil {
			return r, err
		}
		if _, err := serveInProcess(srv, wireReq{method: http.MethodPost, path: "/v1/sequence", contentType: "application/json", body: create}, &out, true); err != nil {
			return r, err
		}
		var info server.SequenceInfo
		if err := json.Unmarshal(out.body.Bytes(), &info); err != nil {
			return r, err
		}
		g := newRegistration(s.sc, genMisalignment(s.seed, k))
		for step := 0; step < icpSteps; step++ {
			buf = appendStepJSON(buf[:0], g.rhs, g.vals)
			req := wireReq{method: http.MethodPost, path: "/v1/sequence/" + info.ID + "/step", contentType: "application/json", body: buf}
			d, err := serveInProcess(srv, req, &out, true)
			if err != nil {
				return r, err
			}
			handler = append(handler, d)
			var resp stepResponse
			if err := json.Unmarshal(out.body.Bytes(), &resp); err != nil {
				return r, err
			}
			g.advance(resp.X)
		}
		if _, err := serveInProcess(srv, wireReq{method: http.MethodDelete, path: "/v1/sequence/" + info.ID}, &out, false); err != nil {
			return r, err
		}

		// The same registration through the solve package alone.
		g = newRegistration(s.sc, genMisalignment(s.seed, k))
		q, err := solve.NewSequence("lsqr", timedRect{jacobian(first.vals), tr}, solve.WithTol(icpTol))
		if err != nil {
			return r, err
		}
		for step := 0; step < icpSteps; step++ {
			start := time.Now()
			tr.begin("solve.seq_step")
			if err := q.UpdateValues(g.vals); err != nil {
				return r, err
			}
			res, err := q.Step(g.rhs)
			tr.end()
			if err != nil {
				return r, err
			}
			direct = append(direct, time.Since(start))
			iters += res.Iterations
			if step == 0 {
				cold = append(cold, float64(res.Iterations))
			} else {
				warm = append(warm, float64(res.Iterations))
			}
			g.advance(res.X)
		}
		if e := g.poseError(); e > icpPoseTol {
			return r, fmt.Errorf("replayed registration ended %g from the known pose", e)
		}
	}
	r.handlerMS, r.solveMS, r.selfMS = medianMS(handler), medianMS(direct), pairedSelfMS(handler, direct)
	r.iters = float64(iters) / float64(len(direct))
	r.spanTotals(tr, "solve.seq_step", len(direct))
	r.coldIters, r.warmIters = mean(cold), mean(warm)
	return r, nil
}
