package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"vrcg/cluster"
	"vrcg/solve"
	"vrcg/sparse"
)

// budget is one workload's layer budget: its median operation split
// into named parts with the remainder shown. For lib-* the parts are
// the decorators' spans and the remainder is the engine (vector
// kernels, reductions, driver); for serve-* the parts are the
// in-process replays and the remainder is the process boundary.
type budget struct {
	Workload  string  `json:"workload"`
	OpMS      float64 `json:"op_ms_p50"` // whole untraced reference window: every part of a budget is a median
	TailMS    float64 `json:"op_ms_tail"`
	RefMS     float64 `json:"ref_op_ms_best"`    // least disturbed slice, as the end-to-end metric
	TracedMS  float64 `json:"traced_op_ms_best"` // the same through the decorators
	Overhead  float64 `json:"trace_overhead_ratio"`
	SolveMS   float64 `json:"solve_ms"`   // the solve package's part of one operation
	SpmvCalls float64 `json:"spmv_calls"` // per operation
	SpmvMS    float64 `json:"spmv_ms"`
	PrecCalls float64 `json:"precond_calls"`
	PrecMS    float64 `json:"precond_ms"`
	EngineMS  float64 `json:"engine_self_ms"`           // solve - spmv - precond
	Iters     float64 `json:"iterations"`               // per operation
	ServerMS  float64 `json:"server_self_ms,omitempty"` // handler - solve
	NetMS     float64 `json:"net_ms,omitempty"`         // op - handler
	NNZ, N    int     // of the operator, for the computed SpMV bytes
}

// layerReport is everything a traced pass produced.
type layerReport struct {
	Metrics map[string]float64 `json:"metrics"`
	Budgets []budget           `json:"budgets"`
	Flags   []string           `json:"flags,omitempty"`
}

// tracedPass runs every workload at a quarter of the window, once
// plain and once through decorators and span recorders, and measures
// every layer metric. Trace files land in outDir.
func tracedPass(seed int64, seconds int) (*layerReport, *runResult, error) {
	bin, _, err := buildServer()
	if err != nil {
		return nil, nil, err
	}
	dur := time.Duration(seconds) * time.Second / 4
	rep := &layerReport{Metrics: make(map[string]float64)}
	total := &runResult{}
	m := rep.Metrics
	for _, spec := range workloadSpecs {
		w, _, err := setUp(spec.Name, seed, bin, 1)
		if err != nil {
			return nil, nil, err
		}
		b, err := traceWorkload(w, spec, seed, dur, m, total, rep)
		w.close()
		if err != nil {
			return nil, nil, fmt.Errorf("%s traced pass: %w", spec.Name, err)
		}
		rep.Budgets = append(rep.Budgets, b)
	}
	if err := clusterCounts(seed, m); err != nil {
		return nil, nil, err
	}
	if err := blockPanel(seed, m); err != nil {
		return nil, nil, err
	}
	return rep, total, nil
}

// traceWorkload runs one workload's reference and traced windows,
// writes its trace file and fills the metrics its layers own.
func traceWorkload(w workload, spec workloadSpec, seed int64, dur time.Duration, m map[string]float64, total *runResult, rep *layerReport) (budget, error) {
	b := budget{Workload: spec.Name}
	// Reference and traced windows alternate in thirds, so that a slow
	// minute of the host lands on both and their ratio is the tracing.
	ref, tr := &runResult{}, &runResult{}
	for round := 0; round < 3; round++ {
		for _, pass := range []struct {
			into   *runResult
			traced bool
		}{{ref, false}, {tr, true}} {
			r, err := w.run(dur/3, pass.traced)
			if err != nil {
				return b, err
			}
			pass.into.append(r)
		}
	}
	for _, r := range []*runResult{ref, tr} {
		total.attempted += r.attempted
		total.failed += r.failed
		if total.firstErr == nil {
			total.firstErr = r.firstErr
		}
	}
	sum, err := writeTrace(filepath.Join(outDir, "trace-"+spec.Name+".json"), spec.Name, seed, tr.tracers)
	if err != nil {
		return b, err
	}
	whole := summarize(ref.op.latMS, spec.tailP)
	b.OpMS, b.TailMS = whole.P50, whole.Tail
	b.RefMS, b.TracedMS = sliceWindow(&ref.op, &spec).P50, sliceWindow(&tr.op, &spec).P50
	b.Overhead = b.TracedMS / b.RefMS
	ops := float64(sum["op"].Count)

	switch w := w.(type) {
	case *libLadder:
		iters := make(map[string]float64)
		for i, name := range ladderMethods {
			b.SolveMS += sum["solve."+name].TotalMS / ops
			b.EngineMS += sum["solve."+name].SelfMS / ops
			iters[name] = float64(w.iters[i])
			b.Iters += iters[name]
		}
		b.N, b.NNZ = w.a.Dim(), w.a.NNZ()
		p50 := func(name string) float64 { return median(sorted(ref.perMethod[name])) }
		for metric, name := range map[string]string{
			"cg_ms_p50": "cg", "pcg_ms_p50": "pcg", "pipecg_ms_p50": "pipecg",
			"sstep_ms_p50": "sstep", "vrcg_ms_p50": "vrcg", "parcg_ms_p50": "parcg",
		} {
			m[metric] = p50(name)
		}
		for metric, pair := range map[string][2]string{
			"pipecg.over_cg": {"pipecg", "cg"}, "pipecg.gropp_over_cg": {"gropp", "cg"},
			"sstep.over_cg": {"sstep", "cg"}, "core.vrcg_over_cg": {"vrcg", "cg"},
			"parcg.over_pipecg": {"parcg", "pipecg"}, "parcg.pipe_over_pipecg": {"parcg-pipe", "pipecg"},
			"krylov.cgfused_over_cg": {"cgfused", "cg"},
		} {
			// Paired sweep by sweep: both solves of one sweep see the
			// same host, so a slow second cancels out of their ratio.
			num, den := ref.perMethod[pair[0]], ref.perMethod[pair[1]]
			ratios := make([]float64, len(num))
			for i := range ratios {
				ratios[i] = num[i] / den[i]
			}
			m[metric] = median(sorted(ratios))
		}
		for metric, name := range map[string]string{
			"krylov.cg_iters": "cg", "krylov.pcg_iters": "pcg", "pipecg.iters": "pipecg",
			"sstep.iters": "sstep", "core.vrcg_iters": "vrcg", "parcg.iters": "parcg",
		} {
			m[metric] = iters[name]
		}
		m["precond.ic0_setup_ms"] = w.ic0SetupMS
		if d := m["krylov.cgfused_over_cg"]; d < 0.97 || d > 1.03 {
			rep.Flags = append(rep.Flags, fmt.Sprintf("krylov.cgfused_over_cg = %.3f: cg and cgfused are one kernel, so this run's noise floor is above 3%%", d))
		}

	case *libStream:
		b.SolveMS = sum["solve.cg"].TotalMS / ops
		b.EngineMS = sum["solve.cg"].SelfMS / ops
		b.Iters = float64(w.iters)
		b.N, b.NNZ = w.a.Dim(), w.a.NNZ()
		// No Pool.Calibrate: its outcome depends on timing. An opcode that
		// loses its trials during a noisy tenth of a second is set to "never
		// parallel" for the life of the pool. The static cutoffs (at most
		// 65536 elements) already send every kernel of this size to the
		// pool, so the dispatch is the same on every run.
		pool := sparse.NewPool(runtime.NumCPU())
		defer pool.Close()
		if err := vecProbes(w, pool, m); err != nil {
			return b, err
		}
		pooled, err := pooledSolveMS(w, pool)
		if err != nil {
			return b, err
		}
		m["vec.pool_speedup"] = b.OpMS / pooled

	case *serveSolve:
		bin, js, err := replaySolve(w)
		if err != nil {
			return b, err
		}
		b.fromReplay(bin, w.a)
		m["solve.session_ms"], m["solve.allocs_per_op"] = bin.solveMS, bin.allocsSolve
		m["server.handler_solve_ms"], m["server.self_solve_ms"] = bin.handlerMS, bin.selfMS
		m["server.json_solve_ms"], m["server.allocs_per_req"] = js.handlerMS, bin.allocsReq
		m["cgserve.net_solve_ms"] = b.NetMS
		m["cgserve.boot_ms"] = w.ch.bootMS
		if m["cgserve.healthz_ms"], err = healthzMS(w.conns[0]); err != nil {
			return b, err
		}
		m["server.rate600_ms_p50"] = median(sorted(ref.rate600.latMS))
		hi := summarize(ref.rate1200.latMS, 0.99)
		m["server.rate1200_ms_p50"], m["server.rate1200_ms_p99"] = hi.P50, hi.Tail
		m["server.max_ok_rate"] = 0
		for _, c := range []struct {
			rate float64
			w    *window
		}{{rateLow, &ref.rate600}, {rateHigh, &ref.rate1200}} {
			if rateOK(c.w) {
				m["server.max_ok_rate"] = c.rate
			}
		}
		late := summarize(ref.rate600.lateMS, 0.99)
		m["gen.max_late_ms"], m["gen.late_p99_ms"] = late.Max, late.Tail
		m["gen.cpu_share"] = ref.rate600.cpuGen / ref.rate600.elapsed.Seconds() / float64(runtime.NumCPU())
		if late.Tail > 2 {
			rep.Flags = append(rep.Flags, fmt.Sprintf("gen.late_p99_ms = %.2f > 2: the generator ran late at %g req/s, the open-loop latencies of this run are not to be trusted", late.Tail, rateLow))
		}
		m["cgserve.cpu_ms_per_op"] = 1e3 * ref.op.cpuServer / float64(ref.op.attempted)
		m["wire.enc_us"] = 1e3 * sum["wire.enc"].TotalMS / float64(sum["wire.enc"].Count)
		m["wire.dec_us"] = 1e3 * sum["wire.dec"].TotalMS / float64(sum["wire.dec"].Count)
		sm, err := w.ch.scrape()
		if err != nil {
			return b, err
		}
		m["server.session_pool_hit_ratio"] = float64(sm.SessionPools.Hits) / float64(max(sm.SessionPools.Hits+sm.SessionPools.Misses, 1))
		m["server.rejected"] = float64(sm.QueueRejects)
		if m["sparse.wire_decode_ms"], err = wireDecodeMS(w.a); err != nil {
			return b, err
		}

	case *serveBatch:
		r, err := replayBatch(w)
		if err != nil {
			return b, err
		}
		b.fromReplay(r, w.a)
		m["solve.batch16_ms"] = r.solveMS
		m["server.handler_batch_ms"], m["server.self_batch_ms"] = r.handlerMS, r.selfMS
		m["cgserve.net_batch_ms"] = b.NetMS

	case *serveICP:
		r, err := replayICP(w)
		if err != nil {
			return b, err
		}
		b.fromReplay(r.replay, nil)
		b.N, b.NNZ = icpPoints, 6*icpPoints
		m["solve.seq_step_ms"] = r.solveMS
		m["solve.seq_cold_iters"], m["solve.seq_warm_iters"] = r.coldIters, r.warmIters
		m["server.handler_step_ms"], m["server.self_step_ms"] = r.handlerMS, r.selfMS
		m["cgserve.net_step_ms"] = b.NetMS
		n, its := 0, 0
		for _, cl := range w.clients {
			for _, it := range cl.iters {
				its += it
				n++
			}
		}
		m["gkrylov.lsqr_iters_per_step"] = float64(its) / float64(max(n, 1))
		sm, err := w.ch.scrape()
		if err != nil {
			return b, err
		}
		m["server.seq_reused_ratio"] = 0
		if sm.Sequences != nil {
			m["server.seq_reused_ratio"] = float64(sm.Sequences.Reused) / float64(max(sm.Sequences.Created, 1))
		}
		m["sparse.rect_setvalues_us"] = rectSetValuesUS(w)
	}

	if spec.inProcess { // the parts are the traced window's own spans
		b.SpmvCalls, b.SpmvMS = float64(sum["sparse.spmv"].Count)/ops, sum["sparse.spmv"].TotalMS/ops
		b.PrecCalls, b.PrecMS = float64(sum["precond.apply"].Count)/ops, sum["precond.apply"].TotalMS/ops
	}
	return b, nil
}

// fromReplay fills a serve-* budget from the in-process replays: the
// operation's median is solve + server self + net; the decorated pass
// splits a solve into spmv + engine.
func (b *budget) fromReplay(r replay, a *sparse.CSR) {
	b.SolveMS, b.SpmvCalls, b.SpmvMS, b.EngineMS, b.Iters = r.solveMS, r.spmvCalls, r.spmvMS, r.engineMS, r.iters
	b.ServerMS = r.selfMS
	b.NetMS = b.OpMS - r.solveMS - r.selfMS // the remainder, so the three parts add up to the operation
	if a != nil {
		b.N, b.NNZ = a.Dim(), a.NNZ()
	}
}

// rateOK is the latency limit of the rate ladder: p99 within 10 ms, no
// failures, and no growing backlog (the last fifth of sends no more
// than 1 ms later, in the median, than the first fifth).
func rateOK(w *window) bool {
	if w.failed > 0 || len(w.latMS) == 0 {
		return false
	}
	n := len(w.lateMS) / 5
	if n == 0 {
		return false
	}
	first, last := median(sorted(w.lateMS[:n])), median(sorted(w.lateMS[len(w.lateMS)-n:]))
	return percentile(sorted(w.latMS), 0.99) <= 10 && last-first <= 1
}

// healthzMS is the HTTP floor: the median GET /healthz on a kept-alive
// connection, no solver work at all.
func healthzMS(c *conn) (float64, error) {
	times := make([]time.Duration, 300)
	r := wireReq{method: http.MethodGet, path: "/healthz"}
	for i := range times {
		start := time.Now()
		status, body, err := c.do(r)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, httpError(r, status, body)
		}
		times[i] = time.Since(start)
	}
	return medianMS(times), nil
}

// wireDecodeMS times decoding the operator upload body the way the
// server's upload handler does.
func wireDecodeMS(a *sparse.CSR) (float64, error) {
	blob, err := json.Marshal(sparse.EncodeCSR(a))
	if err != nil {
		return 0, err
	}
	times := make([]time.Duration, 20)
	for i := range times {
		start := time.Now()
		var wm sparse.WireMatrix
		if err := json.Unmarshal(blob, &wm); err != nil {
			return 0, err
		}
		if _, err := wm.DecodeGeneral(); err != nil {
			return 0, err
		}
		times[i] = time.Since(start)
	}
	return medianMS(times), nil
}

// rectSetValuesUS times the per-step operator-value write.
func rectSetValuesUS(s *serveICP) float64 {
	g := newRegistration(s.sc, genMisalignment(s.seed, 0))
	j := jacobian(g.vals)
	times := make([]time.Duration, 200)
	for i := range times {
		start := time.Now()
		j.SetValues(g.vals)
		times[i] = time.Since(start)
	}
	return 1e3 * medianMS(times)
}

// pooledSolveMS is lib-stream's solve on a pool of nproc workers; the
// workload's own serial solve is the single-thread baseline beside it.
func pooledSolveMS(l *libStream, pool *sparse.Pool) (float64, error) {
	sess, err := solve.NewSession("cg", l.a, solve.WithTol(libTol), solve.WithPool(pool))
	if err != nil {
		return 0, err
	}
	times := make([]time.Duration, 6)
	for i := range times {
		d, err := l.solveOnce(sess, nil)
		if err != nil {
			return 0, err
		}
		times[i] = d
	}
	return medianMS(times[1:]), nil // the first sizes the workspace
}

// vecProbes measures the exported vector kernels on a pool of nproc
// workers at lib-stream's vector length, and the benchmark's own STREAM triad beside
// them as the roofline reference. Bytes are computed from array sizes
// (no write-allocate traffic counted).
func vecProbes(l *libStream, pool *sparse.Pool, m map[string]float64) error {
	n := l.a.Dim()
	vs := genRHS(l.seed, n, 4)
	x, y, p, ap := vs[0], vs[1], vs[2], vs[3]
	workers := pool.Workers()
	gbps := func(bytesPerElem int, fn func()) float64 {
		const reps = 40
		times := make([]time.Duration, reps)
		fn() // warm
		for i := range times {
			start := time.Now()
			fn()
			times[i] = time.Since(start)
		}
		return float64(bytesPerElem*n) / 1e9 / (medianMS(times) / 1e3)
	}
	sinkF := 0.0
	m["vec.dot_gbps"] = gbps(16, func() { sinkF += pool.Dot(x, y) })
	m["vec.axpy_gbps"] = gbps(24, func() { pool.Axpy(1e-9, x, y) })
	m["vec.fused_update_gbps"] = gbps(48, func() { sinkF += pool.FusedCGUpdate(1e-9, p, ap, x, y) })
	m["vec.triad_gbps"] = gbps(24, func() { // a = b + s*c, split across the pool's worker count
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, b, c := x[lo:hi], y[lo:hi], p[lo:hi]
				for i := range a {
					a[i] = b[i] + 1e-9*c[i]
				}
			}()
		}
		wg.Wait()
	})
	if math.IsNaN(sinkF) {
		return fmt.Errorf("vector probes produced NaN")
	}
	return nil
}

// clusterCounts runs an in-process coordinator and two workers on the
// ladder's system. Three parties on two cores give no honest
// wall-clock, so only counts are reported.
func clusterCounts(seed int64, m map[string]float64) error {
	a := sparse.Poisson2D(64)
	b := genLadderRHS(seed, a.Dim())
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{})
	defer coord.Close()
	for i := 0; i < 2; i++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{})
		if err != nil {
			return err
		}
		defer w.Close()
		if _, err := coord.AddWorker(w.Addr()); err != nil {
			return err
		}
	}
	if err := coord.Place("p64", a); err != nil {
		return err
	}
	var res *cluster.Result
	solveOnce := func() (err error) {
		res, err = coord.Solve(context.Background(), "p64", "cg", b, cluster.SolveOpts{Tol: libTol})
		return err
	}
	if err := solveOnce(); err != nil { // warm: connections, buffers
		return err
	}
	var err error
	allocs := mallocs(func() { err = solveOnce() })
	if err != nil {
		return err
	}
	if !residualOK(a, res.X, b, make([]float64, a.Dim()), libTol) {
		return fmt.Errorf("cluster cg: %w", errUnverified)
	}
	m["cluster.iters"] = float64(res.Iterations)
	m["cluster.iters_parity"] = float64(res.Iterations) / m["krylov.cg_iters"]
	m["cluster.allocs_per_iter"] = allocs / float64(res.Iterations)
	return nil
}

// blockPanel compares solve.Batch through the block route (one panel
// of sixteen columns on a two-worker pool) with the same sixteen solves
// column by column on that pool. Diagnostic: a default cgserve has no
// engine pool and never takes the block route.
func blockPanel(seed int64, m map[string]float64) error {
	a := sparse.Poisson2D(serveGrid)
	rhs := genRHS(seed, a.Dim(), serveRHS)
	pool := sparse.NewPool(2)
	defer pool.Close()
	sess, err := solve.NewSession("cg", a, solve.WithTol(libTol), solve.WithPool(pool))
	if err != nil {
		return err
	}
	const reps = 12
	panel, cols := make([]time.Duration, reps), make([]time.Duration, reps)
	for i := -2; i < reps; i++ { // two warm-up rounds
		start := time.Now()
		if _, err := solve.Batch(sess, rhs); err != nil {
			return err
		}
		mid := time.Now()
		for _, b := range rhs {
			if _, err := sess.Solve(b); err != nil {
				return err
			}
		}
		if i >= 0 {
			panel[i], cols[i] = mid.Sub(start), time.Since(mid)
		}
	}
	m["block.panel16_over_columns"] = medianMS(panel) / medianMS(cols)
	return nil
}

// focus sets the metrics that describe one workload's budget.
func (rep *layerReport) focus(name string) {
	m := rep.Metrics
	for _, b := range rep.Budgets {
		if b.Workload != name {
			continue
		}
		m["trace.overhead_ratio"] = b.Overhead
		m["op_ms_tail"] = b.TailMS
		m["sparse.spmv_calls"], m["sparse.spmv_ms"] = b.SpmvCalls, b.SpmvMS
		parts := b.SpmvMS + b.PrecMS + b.EngineMS // a decorated solve, split
		m["sparse.spmv_share"] = b.SpmvMS / parts
		// Computed bytes of one CSR product: values and column indices
		// per nonzero, row pointers, x read and y written once.
		bytes := float64(16*b.NNZ + 8*(b.N+1) + 16*b.N)
		m["sparse.spmv_gbps"] = bytes * b.SpmvCalls / 1e9 / (b.SpmvMS / 1e3)
		m["sparse.spmv_stream_ratio"] = m["sparse.spmv_gbps"] / m["vec.triad_gbps"]
		m["precond.apply_calls"], m["precond.apply_ms"] = b.PrecCalls, b.PrecMS
		m["precond.apply_share"] = b.PrecMS / parts
		m["engine.self_ms"] = b.EngineMS
		m["engine.self_share"] = b.EngineMS / parts
		m["engine.self_us_per_iter"] = 1e3 * b.EngineMS / b.Iters
	}
}

// printBudgets prints, per workload, the parts against the whole and
// the remainder by name. A negative remainder means a replay was not
// the same work as the request; it is reported as an error.
func (rep *layerReport) printBudgets(w io.Writer) (ok bool) {
	ok = true
	healthz := rep.Metrics["cgserve.healthz_ms"]
	for _, b := range rep.Budgets {
		fmt.Fprintf(w, "budget %-12s trace.overhead_ratio %.3f (traced %.4f / untraced %.4f ms, least disturbed slice of each)\n", b.Workload, b.Overhead, b.TracedMS, b.RefMS)
		if b.ServerMS != 0 || b.NetMS != 0 {
			fmt.Fprintf(w, "  whole-window median %.4f = solve %.4f + server.self %.4f + cgserve.net %.4f (an idle server answers /healthz in %.4f)\n",
				b.OpMS, b.SolveMS, b.ServerMS, b.NetMS, healthz)
			// The binary path's own work is a few hundredths of a
			// millisecond; a median that small may fall just below zero.
			if b.ServerMS < -0.05*b.SolveMS || b.NetMS < 0 {
				fmt.Fprintf(w, "  ERROR: negative remainder: the in-process replay is not the same work as the request\n")
				ok = false
			}
		}
		fmt.Fprintf(w, "  a decorated solve, %.4f ms = sparse.spmv %.4f (%.0f calls) + precond.apply %.4f (%.0f calls) + engine.self %.4f (%.2f us/iter over %.0f iters)\n",
			b.SpmvMS+b.PrecMS+b.EngineMS, b.SpmvMS, b.SpmvCalls, b.PrecMS, b.PrecCalls, b.EngineMS, 1e3*b.EngineMS/b.Iters, b.Iters)
		if b.EngineMS < 0 {
			fmt.Fprintf(w, "  ERROR: negative engine remainder\n")
			ok = false
		}
		if b.Overhead > 1.10 {
			fmt.Fprintf(w, "  WARNING: tracing slowed this workload by more than 10%%\n")
		}
	}
	for _, f := range rep.Flags {
		fmt.Fprintln(w, "flag:", f)
	}
	return ok
}

// runTraced is one --trace 1 run: every per-layer metric, with the
// budget metrics (sparse.spmv_*, precond.apply_*, engine.self_*,
// trace.overhead_ratio) taken on the named workload.
func runTraced(name string, seed int64, seconds int) (*result, error) {
	rep, total, err := tracedPass(seed, seconds)
	if err != nil {
		return nil, err
	}
	rep.focus(name)
	// The whole report, every budget included, for whoever ran this.
	blob, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "layers.json"), blob, 0o644)
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct: total.failed == 0 && total.attempted > 0, Attempted: total.attempted, Failed: total.failed,
		firstErr: total.firstErr, Metrics: make(map[string]metricValue), layers: rep,
	}
	for _, spec := range perLayer {
		v, ok := rep.Metrics[spec.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("layer metric %s was not measured (%v)", spec.Name, v)
		}
		res.Metrics[spec.Name] = metricValue{v, spec.Unit}
	}
	return res, nil
}
