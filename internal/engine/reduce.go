package engine

import (
	"runtime"

	"vrcg/internal/vec"
)

// A reduction is issued, then awaited. The paper's schedules differ in
// what a kernel does between those two points — nothing (blocking CG)
// or one SpMV (pipelined CG, and look-ahead, whose anchor batch is
// awaited in the step that issues it though its values are first read
// k iterations later) — so the Workspace offers exactly that pair and
// decides, in issue, where the sums run: at issue on the workspace pool
// when Config.Blocking is set, otherwise on background goroutines while
// the caller carries on. Serial and pooled sums follow the same blocked
// tree and every inner product is summed whole by one party, so the two
// are bitwise identical: overlap is a property of the schedule, never
// of the arithmetic.
//
// One reduction is in flight at a time, and none between driver steps
// (Solve enforces it). Between issue and await the caller must not
// write any vector the reduction reads.

// RowBlock is implemented by an operator that holds one row block of a
// larger operator whose other blocks run the same kernel elsewhere (one
// cluster worker each): Dim is the block's row count and MulVec fetches
// the entries of x the block reads from its neighbours. Solve detects
// it from the operator it is handed; every sum the workspace then takes
// is this block's partial sum, computed exactly as without one and
// combined across the blocks. An issue evaluates the partial sums at
// once and posts them, the await collects the combined ones: what a
// schedule overlaps with its reduction is the exchange between the
// blocks instead of a goroutine. Every block posts and collects the
// same sequence of sums and collects identical values, so all of them
// take every convergence decision alike.
type RowBlock interface {
	// PostSums sends this block's partial sums and returns without
	// waiting for anyone; vals is not retained.
	PostSums(vals []float64)
	// CollectSums waits for the sums posted last, combined over every
	// block, and stores them in dst.
	CollectSums(dst []float64)
	// Err is the first transport failure, nil while there is none. Once
	// it is set MulVec, PostSums and CollectSums return at once, leaving
	// their outputs alone; the driver ends the solve with this error.
	Err() error
}

// reduction is the job description: either the fused pair
// out = pair = (<x,y>, <x,z>) when x is set, or the batch
// out[i] = <xs[i], ys[i]>, part its block partials, nb to an inner product.
type reduction struct {
	x, y, z vec.Vector
	pair    [2]float64

	out    []float64
	xs, ys []vec.Vector
	part   []float64
	nb     int
}

// sum computes share wid of nw of the job — a contiguous run of a
// batch's inner products, as one vec.Dots — on pool (nil = the serial
// kernels): the whole job at issue is sum(pool, 0, 1), a background
// worker's share sum(nil, wid, nw). Every piece lands in its own result
// and is summed whole by one party, so the split changes nothing bitwise;
// it only shortens a batch's critical path to fit its overlap window.
func (j *reduction) sum(pool *vec.Pool, wid, nw int) {
	if j.x != nil {
		j.pair[0], j.pair[1] = pool.DotPair(j.x, j.y, j.z)
		return
	}
	lo, hi := wid*len(j.out)/nw, (wid+1)*len(j.out)/nw
	pool.Dots(j.out[lo:hi], j.xs[lo:hi], j.ys[lo:hi], j.part[lo*j.nb:hi*j.nb:hi*j.nb])
}

// bgReducer owns a workspace's reduction job and the goroutines that
// run it overlapped: persistent workers, each behind an unbuffered
// request/done pair, started on demand. The goroutines reference the
// reducer, never the workspace, so a dropped workspace can be
// collected; its cleanup closes quit and they exit.
type bgReducer struct {
	job reduction

	reqs, dones []chan struct{}
	quit        chan struct{}
	maxWorkers  int
	active      int // workers woken by the launch in flight
}

func (b *bgReducer) startWorker() {
	wid := len(b.reqs)
	req, done := make(chan struct{}), make(chan struct{})
	b.reqs = append(b.reqs, req)
	b.dones = append(b.dones, done)
	go func() {
		for {
			select {
			case <-b.quit:
				return
			case <-req:
				b.job.sum(nil, wid, b.active)
				done <- struct{}{}
			}
		}
	}()
}

// launch hands the loaded job to one goroutine per independently
// summable piece — one for the fused pair — up to maxWorkers. The
// channel send/receive pairs give the happens-before edges that make
// the job's reads of kernel vectors race-free against the overlapped
// work (which touches disjoint storage).
func (b *bgReducer) launch() {
	nw := 1
	if b.job.x == nil {
		nw = min(len(b.job.out), b.maxWorkers)
	}
	for len(b.reqs) < nw {
		b.startWorker()
	}
	b.active = nw
	for _, c := range b.reqs[:nw] {
		c <- struct{}{}
	}
}

// wait blocks until every woken worker is done; after a blocking issue
// (nothing woken) it returns at once.
func (b *bgReducer) wait() {
	for _, c := range b.dones[:b.active] {
		<-c
	}
	b.active = 0
}

// IssueDotPair starts the fused reduction (<x,y>, <x,z>);
// AwaitDotPair collects it.
func (ws *Workspace) IssueDotPair(x, y, z vec.Vector) {
	ws.dots(2, len(x))
	j := ws.newJob()
	j.x, j.y, j.z, j.out = x, y, z, j.pair[:]
	ws.issue()
}

// IssueDots starts the batch out[i] = <xs[i], ys[i]> of arena vectors;
// Await completes it. The slices are read until then.
func (ws *Workspace) IssueDots(out []float64, xs, ys []vec.Vector) {
	ws.dots(len(out), ws.n)
	j := ws.newJob()
	j.x, j.out, j.xs, j.ys = nil, out, xs, ys
	j.nb = blocks(ws.n)
	j.part = grown(j.part, len(out)*j.nb)
	ws.issue()
}

func (ws *Workspace) newJob() *reduction {
	if ws.inFlight {
		panic("engine: reduction issued while another is in flight")
	}
	if ws.red == nil {
		ws.red = &bgReducer{}
	}
	return &ws.red.job
}

// issue is the one place a schedule's blocking/overlapped choice is
// acted on. A row block's partial sums are always taken here: what it
// overlaps is the exchange. So are the sums of a host with one P, where
// the goroutines could only take turns with the caller.
func (ws *Workspace) issue() {
	ws.inFlight = true
	if ws.run.Cfg.Blocking || ws.block != nil || ws.oneP {
		t0 := ws.begin()
		ws.red.job.sum(ws.pool, 0, 1)
		if ws.block != nil {
			ws.block.PostSums(ws.red.job.out)
		}
		ws.charge(PhaseReduction, t0)
		return
	}
	if ws.red.quit == nil {
		ws.red.quit = make(chan struct{})
		ws.red.maxWorkers = runtime.GOMAXPROCS(0)
		runtime.AddCleanup(ws, func(quit chan struct{}) { close(quit) }, ws.red.quit)
	}
	ws.red.launch()
}

// Await blocks until the issued reduction is complete, charging the
// wait to PhaseReduction.
func (ws *Workspace) Await() {
	if !ws.inFlight {
		panic("engine: Await without an issued reduction")
	}
	t0 := ws.begin()
	ws.red.wait()
	if ws.block != nil {
		ws.block.CollectSums(ws.red.job.out)
	}
	ws.charge(PhaseReduction, t0)
	ws.inFlight = false
}

// AwaitDotPair awaits the reduction started by IssueDotPair or
// IssuePipeUpdate and returns its two sums.
func (ws *Workspace) AwaitDotPair() (xy, xz float64) {
	ws.Await()
	return ws.red.job.pair[0], ws.red.job.pair[1]
}

// AwaitSum awaits the reduction started by IssueFusedCGUpdate and returns
// its sum.
func (ws *Workspace) AwaitSum() float64 {
	ws.Await()
	return ws.red.job.pair[0]
}

// issueSums puts in flight the first m sums of j.pair, which the pass that
// just wrote the vectors took on its way: a row block posts its partial
// sums now and collects the combined ones at the await, so the exchange
// still rides over whatever the schedule does in between; one process has
// nothing left to wait for, and starts nothing.
func (ws *Workspace) issueSums(j *reduction, m int) {
	j.out = j.pair[:m]
	ws.inFlight = true
	if ws.block != nil {
		ws.block.PostSums(j.out)
	}
}

// IssuePipeUpdate is the stretch of a Ghysels–Vanroose iteration between
// its product and its reduction — p = r + beta*p, s = w + beta*s,
// q = n + beta*q, x += alpha*p, r -= alpha*s, w -= alpha*q — with the
// reduction (<r,r>, <w,r>) of the new r, w issued; AwaitDotPair collects
// it. A serial workspace takes all of it in one pass (vec.PipeUpdate,
// charged to the update phase like FusedCGUpdate); a pooled one makes the
// six pooled calls and IssueDotPair. Same bits either way, so nothing
// selects but whether there is a pool — the rule Direction follows.
func (ws *Workspace) IssuePipeUpdate(alpha, beta float64, r, w, n, p, s, q, x vec.Vector) {
	if ws.pool != nil {
		ws.Xpay(r, beta, p)
		ws.Xpay(w, beta, s)
		ws.Xpay(n, beta, q)
		ws.Axpy(alpha, p, x)
		ws.Axpy(-alpha, s, r)
		ws.Axpy(-alpha, q, w)
		ws.IssueDotPair(r, r, w)
		return
	}
	ws.updates(6, len(x))
	ws.dots(2, len(r))
	j := ws.newJob()
	t0 := ws.begin()
	j.pair[0], j.pair[1] = vec.PipeUpdate(alpha, beta, r, w, n, p, s, q, x)
	ws.issueSums(j, 2)
	ws.charge(PhaseUpdate, t0)
}

// IssueFusedCGUpdate is FusedCGUpdate — x += alpha*p, r -= alpha*ap —
// with its <r,r> issued instead of returned; AwaitSum collects it.
func (ws *Workspace) IssueFusedCGUpdate(alpha float64, p, ap, x, r vec.Vector) {
	ws.updates(2, len(x))
	ws.dots(1, len(r))
	j := ws.newJob()
	t0 := ws.begin()
	j.pair[0] = ws.pool.FusedCGUpdate(alpha, p, ap, x, r)
	ws.issueSums(j, 1)
	ws.charge(PhaseUpdate, t0)
}
