package main

// This file is the benchmark's dictionary: every workload and metric by
// name. BENCHMARK.json at the repository root restates it for the
// driver (spec_test.go keeps the two equal), and README.md explains
// each entry.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// tailP is the fixed percentile op_ms_tail reports on this
	// workload, chosen so that a whole window keeps about ten samples
	// beyond it at this workload's operation rate. sliceS is the slice
	// length its timing metrics are taken over (see sliceWindow): a few
	// operations in process (on lib-stream, one), ten to thirty against the
	// server. setups is how often a run sets up from nothing: more often
	// the shorter a set-up is, three to four seconds of it in all.
	tailP  float64
	sliceS float64
	setups int
	// inProcess: this process does the work (lib-*), back to back, so
	// the window's clock is time spent inside operations.
	inProcess bool
}

var workloadSpecs = []workloadSpec{
	{Name: "lib-ladder", tailP: 0.90, sliceS: 0.25, setups: 12, inProcess: true,
		Why: "nine CG schedules on one thread on an L2-resident Poisson2D(64): kernel scheduling, reductions and precond do the work; SpMV bandwidth and the server do none"},
	{Name: "lib-stream", tailP: 0.75, sliceS: 0.6, setups: 5, inProcess: true,
		Why: "cg on one thread on Poisson3D(64), ~40 MB working set: SpMV and vector-kernel bandwidth are nearly all of the time; schedule and server changes should not move it"},
	{Name: "serve-solve", tailP: 0.99, sliceS: 0.025, setups: 12,
		Why: "binary single solves (n=1024) against a booted cgserve, closed loop, 2 clients: HTTP, decode, admission, session acquire, encode at their largest share of a request"},
	{Name: "serve-batch", tailP: 0.95, sliceS: 0.1, setups: 12,
		Why: "binary 16-rhs batches on the same operator, closed loop: solve.Batch fan-out and run-slot borrowing do the work, transport cost is amortised 16x"},
	{Name: "serve-icp", tailP: 0.95, sliceS: 0.25, setups: 7,
		Why: "ICP-shaped sequences over JSON: 20 steps per registration, each shipping a 5000x6 Jacobian (~690 KB); JSON decode and operator-value writes dominate, the solve is tiny"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

var perLayer = []metricSpec{
	// the focus workload's tail latency, from the reference window
	{Name: "op_ms_tail", Unit: "ms", Better: "lower"},
	// internal/vec, on lib-stream's vectors and pool
	{Name: "vec.dot_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "vec.axpy_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "vec.fused_update_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "vec.triad_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "vec.pool_speedup", Unit: "ratio", Better: "higher"},
	// sparse
	{Name: "sparse.spmv_calls", Unit: "count", Better: "lower"},
	{Name: "sparse.spmv_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.spmv_share", Unit: "ratio", Better: "lower"},
	{Name: "sparse.spmv_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "sparse.spmv_stream_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sparse.rect_setvalues_us", Unit: "us", Better: "lower"},
	{Name: "sparse.wire_decode_ms", Unit: "ms", Better: "lower"},
	// precond
	{Name: "precond.ic0_setup_ms", Unit: "ms", Better: "lower"},
	{Name: "precond.apply_calls", Unit: "count", Better: "lower"},
	{Name: "precond.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "precond.apply_share", Unit: "ratio", Better: "lower"},
	// internal/engine
	{Name: "engine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.self_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.self_us_per_iter", Unit: "us", Better: "lower"},
	// kernel packages: time to a tol-1e-8 solution on lib-ladder
	{Name: "cg_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "pcg_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "pipecg_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sstep_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "vrcg_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "parcg_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "krylov.cg_iters", Unit: "count", Better: "lower"},
	{Name: "krylov.pcg_iters", Unit: "count", Better: "lower"},
	{Name: "pipecg.iters", Unit: "count", Better: "lower"},
	{Name: "sstep.iters", Unit: "count", Better: "lower"},
	{Name: "core.vrcg_iters", Unit: "count", Better: "lower"},
	{Name: "parcg.iters", Unit: "count", Better: "lower"},
	{Name: "pipecg.over_cg", Unit: "ratio", Better: "lower"},
	{Name: "pipecg.gropp_over_cg", Unit: "ratio", Better: "lower"},
	{Name: "sstep.over_cg", Unit: "ratio", Better: "lower"},
	{Name: "core.vrcg_over_cg", Unit: "ratio", Better: "lower"},
	{Name: "parcg.over_pipecg", Unit: "ratio", Better: "lower"},
	{Name: "parcg.pipe_over_pipecg", Unit: "ratio", Better: "lower"},
	{Name: "krylov.cgfused_over_cg", Unit: "ratio", Better: "lower"},
	{Name: "gkrylov.lsqr_iters_per_step", Unit: "count", Better: "lower"},
	{Name: "block.panel16_over_columns", Unit: "ratio", Better: "lower"},
	// solve: each serve-* request replayed in-process
	{Name: "solve.session_ms", Unit: "ms", Better: "lower"},
	{Name: "solve.batch16_ms", Unit: "ms", Better: "lower"},
	{Name: "solve.seq_step_ms", Unit: "ms", Better: "lower"},
	{Name: "solve.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "solve.seq_cold_iters", Unit: "count", Better: "lower"},
	{Name: "solve.seq_warm_iters", Unit: "count", Better: "lower"},
	// server: in-process handler, and the child's own counters
	{Name: "server.handler_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_step_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_step_ms", Unit: "ms", Better: "lower"},
	{Name: "server.json_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "server.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "server.session_pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.seq_reused_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.rate600_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.rate1200_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.rate1200_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "server.max_ok_rate", Unit: "1/s", Better: "higher"},
	// cgserve: the process and the loopback
	{Name: "cgserve.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "cgserve.healthz_ms", Unit: "ms", Better: "lower"},
	{Name: "cgserve.net_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "cgserve.net_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "cgserve.net_step_ms", Unit: "ms", Better: "lower"},
	{Name: "cgserve.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	// client framing and the load generator itself
	{Name: "wire.enc_us", Unit: "us", Better: "lower"},
	{Name: "wire.dec_us", Unit: "us", Better: "lower"},
	{Name: "gen.max_late_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.cpu_share", Unit: "ratio", Better: "lower"},
	// cluster: counts only
	{Name: "cluster.iters", Unit: "count", Better: "lower"},
	{Name: "cluster.iters_parity", Unit: "ratio", Better: "higher"},
	{Name: "cluster.allocs_per_iter", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

func specOf(name string) *workloadSpec {
	for i := range workloadSpecs {
		if workloadSpecs[i].Name == name {
			return &workloadSpecs[i]
		}
	}
	return nil
}
