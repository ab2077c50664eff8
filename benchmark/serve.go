package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"vrcg/server"
	"vrcg/solve"
	"vrcg/sparse"
)

const (
	serveClients = 2 // connections and client goroutines
	serveGrid    = 32
	serveRHS     = 16
	solveParams  = `{"tol":1e-08}`
	rateLow      = 600.0  // req/s, ~38% of this box's closed-loop capacity
	rateHigh     = 1200.0 // ~75%
	solveWarm    = 50     // untimed operations per client before a window
	batchWarm    = 8
	icpPoints    = 5000
	icpSteps     = 20
	icpTol       = 1e-10
	icpPoseTol   = 1e-6
)

// serveBase is what the three serve-* workloads share: a booted child
// and one connection-holding client per goroutine.
type serveBase struct {
	bin   string
	ch    *child
	hc    *http.Client
	conns []*conn
}

func (s *serveBase) boot() error {
	ch, err := bootServer(s.bin)
	if err != nil {
		return err
	}
	s.ch = ch
	s.hc = newHTTPClient(serveClients)
	s.conns = make([]*conn, serveClients)
	for i := range s.conns {
		s.conns[i] = &conn{hc: s.hc, base: ch.base}
	}
	return nil
}

func (s *serveBase) rssPID() int { return s.ch.pid() }

func (s *serveBase) close() {
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	if s.ch != nil {
		s.ch.stop()
	}
}

// trace gives every connection a fresh tracer (or none).
func (s *serveBase) trace(on bool) []*tracer {
	var out []*tracer
	epoch := time.Now()
	for _, c := range s.conns {
		c.tr = nil
		if on {
			c.tr = newTracer(epoch)
			out = append(out, c.tr)
		}
	}
	return out
}

// warm runs n untimed operations on every client. Set-up ends with it
// and every timed window starts with it: the first requests on a fresh
// connection or after an idle gap are one-off slow (a cold window
// showed a 10 ms p99 that no later window repeated).
func (s *serveBase) warm(op opFunc, n int) error {
	w := runWorkers(serveClients, func(w int, out *window) {
		for i := 0; i < n; i++ {
			_, err := op(w, w+i*serveClients)
			out.record(time.Time{}, time.Time{}, err)
		}
	})
	return w.firstErr
}

// timed warms up, then runs the window and notes the child's CPU time
// over it. A failed warm-up operation counts as a
// failed operation of the pass.
func (s *serveBase) timed(res *runResult, op opFunc, warmN int, run func() window) window {
	if err := s.warm(op, warmN); err != nil {
		res.add(window{attempted: 1, failed: 1, firstErr: err})
	}
	cpu0, _ := cpuSeconds(s.ch.pid())
	win := run()
	cpu1, _ := cpuSeconds(s.ch.pid())
	win.cpuServer = cpu1 - cpu0
	res.add(win)
	return win
}

// binarySolve posts one binary frame and decodes every result.
func (c *conn) binarySolve(path, operator string, rhs [][]float64) (time.Time, error) {
	c.tr.begin("wire.enc")
	c.reqBuf = encodeSolveFrame(c.reqBuf[:0], operator, "cg", solveParams, rhs)
	c.tr.end()
	r := wireReq{method: http.MethodPost, path: path, contentType: server.BinaryContentType, body: c.reqBuf}
	c.tr.begin("http")
	status, body, err := c.do(r)
	c.tr.end()
	if err != nil {
		return time.Time{}, err
	}
	if status != http.StatusOK {
		return time.Time{}, httpError(r, status, body)
	}
	c.tr.begin("wire.dec")
	c.results, err = decodeSolveFrame(body, c.results)
	c.tr.end()
	return time.Now(), err
}

// verify checks every decoded result against its right-hand side.
func (c *conn) verify(a *sparse.CSR, rhs [][]float64, scratch []float64) error {
	c.tr.begin("verify")
	defer c.tr.end()
	if len(c.results) != len(rhs) {
		return fmt.Errorf("%d results for %d right-hand sides", len(c.results), len(rhs))
	}
	for i, r := range c.results {
		if !r.converged || !residualOK(a, r.x, rhs[i], scratch, libTol) {
			return errUnverified
		}
	}
	return nil
}

// poissonServe is what serve-solve and serve-batch share: the
// Poisson2D(32) operator, sixteen seeded right-hand sides and a
// verification scratch vector per client.
type poissonServe struct {
	serveBase
	seed    int64
	a       *sparse.CSR
	rhs     [][]float64
	scratch [][]float64
}

// prepare generates the inputs, boots the child and uploads the
// operator under each name.
func (s *poissonServe) prepare(names ...string) error {
	s.a = sparse.Poisson2D(serveGrid)
	s.rhs = genRHS(s.seed, s.a.Dim(), serveRHS)
	s.scratch = make([][]float64, serveClients)
	for i := range s.scratch {
		s.scratch[i] = make([]float64, s.a.Dim())
	}
	if err := s.boot(); err != nil {
		return err
	}
	wm := sparse.EncodeCSR(s.a)
	for _, name := range names {
		if err := s.conns[0].upload(name, wm); err != nil {
			return err
		}
	}
	return nil
}

// serveSolve is the binary single-solve request path at its largest
// share of a request: a ~0.8 ms solve behind HTTP, frame decode,
// admission, session acquire and encode.
type serveSolve struct {
	poissonServe
	names []string
	// closedOnly leaves the open-loop phases out: a judged run reports
	// nothing from them (see run).
	closedOnly bool
}

func (s *serveSolve) setup() error {
	// Four names over one matrix: requests round-robin across them, so
	// store and session-pool lookups cross keys as they would with
	// several tenants.
	s.names = []string{"p32-0", "p32-1", "p32-2", "p32-3"}
	if err := s.prepare(s.names...); err != nil {
		return err
	}
	return s.warm(s.op, solveWarm)
}

func (s *serveSolve) op(w, i int) (time.Time, error) {
	c := s.conns[w]
	rhs := s.rhs[i%serveRHS : i%serveRHS+1]
	c.tr.begin("op")
	defer c.tr.end()
	done, err := c.binarySolve("/v1/solve", s.names[i%len(s.names)], rhs)
	if err != nil {
		return done, err
	}
	return done, c.verify(s.a, rhs, s.scratch[w])
}

// run is a closed loop, which both end-to-end timing metrics come from;
// in the traced pass it has 40% of the window, after an open loop at the
// low rate (40%) and one at the high rate (20%) that feed server.rate*,
// server.max_ok_rate and gen.*. The open loops are not judged: below
// capacity both virtual cores sleep between requests, every request then
// waits for the host to wake one, and on a busy host that wait is most of
// the latency. Over ten runs on a busy afternoon the 600 req/s median
// (best slice) spread 17% of its median and 41% on another; the
// closed-loop median of the same runs 4%.
func (s *serveSolve) run(dur time.Duration, traced bool) (*runResult, error) {
	res := &runResult{tracers: s.trace(traced)}
	if !s.closedOnly {
		res.rate600 = s.timed(res, s.op, solveWarm, func() window { return openLoop(serveClients, rateLow, dur*2/5, s.op) })
		res.rate1200 = s.timed(res, s.op, solveWarm, func() window { return openLoop(serveClients, rateHigh, dur/5, s.op) })
		dur = dur * 2 / 5
	}
	res.op = s.timed(res, s.op, solveWarm, func() window { return closedLoop(serveClients, dur, s.op) })
	return res, nil
}

// serveBatch is the same operator with the opposite cost profile:
// sixteen solves per request, so solve.Batch fan-out and run-slot
// borrowing do the work and transport cost is amortised.
type serveBatch struct{ poissonServe }

func (s *serveBatch) setup() error {
	if err := s.prepare("p32"); err != nil {
		return err
	}
	return s.warm(s.op, batchWarm)
}

func (s *serveBatch) op(w, _ int) (time.Time, error) {
	c := s.conns[w]
	c.tr.begin("op")
	defer c.tr.end()
	done, err := c.binarySolve("/v1/solve/batch", "p32", s.rhs)
	if err != nil {
		return done, err
	}
	return done, c.verify(s.a, s.rhs, s.scratch[w])
}

func (s *serveBatch) run(dur time.Duration, traced bool) (*runResult, error) {
	res := &runResult{tracers: s.trace(traced)}
	res.op = s.timed(res, s.op, batchWarm, func() window { return closedLoop(serveClients, dur, s.op) })
	return res, nil
}

// serveICP is the server used the other way: JSON instead of binary,
// and operator-value writes (a re-linearised Jacobian per step) beside
// tiny least-squares solves.
type serveICP struct {
	serveBase
	seed int64
	sc   *scene

	clients []icpClient // one per client goroutine
}

// icpClient is one client goroutine's registration loop.
type icpClient struct {
	reg     *registration // in flight
	seqID   string        // its server-side sequence; "" between registrations
	step    int           // steps of reg answered
	started int           // registrations begun
	iters   []int         // LSQR iterations of every step answered in the window
}

const icpOperator = "icp-jacobian"

// jacobian builds the fixed-structure rows x 6 operator: every row
// stores all six entries, so per-step value updates are legal.
func jacobian(vals []float64) *sparse.Rect {
	rows := len(vals) / 6
	rowPtr := make([]int, rows+1)
	colIdx := make([]int, 6*rows)
	for i := 0; i < rows; i++ {
		rowPtr[i+1] = 6 * (i + 1)
		for j := 0; j < 6; j++ {
			colIdx[6*i+j] = j
		}
	}
	return sparse.NewRect(rows, 6, rowPtr, colIdx, append([]float64(nil), vals...))
}

func (s *serveICP) setup() error {
	s.sc = genScene(s.seed, icpPoints)
	if err := s.boot(); err != nil {
		return err
	}
	first := newRegistration(s.sc, genMisalignment(s.seed, 0))
	if err := s.conns[0].upload(icpOperator, sparse.EncodeRect(jacobian(first.vals))); err != nil {
		return err
	}
	s.clients = make([]icpClient, serveClients)
	return s.warm(s.op, icpSteps) // one whole registration per client
}

// open starts client w's next registration: a new misalignment and a
// server-side sequence to solve its steps.
func (s *serveICP) open(w int) error {
	c, cl := s.conns[w], &s.clients[w]
	cl.reg = newRegistration(s.sc, genMisalignment(s.seed, w+serveClients*cl.started))
	cl.started++
	cl.step = 0
	var info server.SequenceInfo
	c.tr.begin("sequence.create")
	err := c.postJSON(http.MethodPost, "/v1/sequence",
		server.SequenceCreateRequest{Operator: icpOperator, Method: "lsqr", Params: &solve.Params{Tol: icpTol}}, &info)
	c.tr.end()
	cl.seqID = info.ID
	return err
}

func (s *serveICP) closeSeq(w int) error {
	c, cl := s.conns[w], &s.clients[w]
	if cl.seqID == "" {
		return nil
	}
	c.tr.begin("sequence.close")
	err := c.postJSON(http.MethodDelete, "/v1/sequence/"+cl.seqID, nil, nil)
	c.tr.end()
	cl.seqID = ""
	return err
}

// stepResponse is the part of server.SequenceStepResponse the client
// needs; the whole body is still parsed.
type stepResponse struct {
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
}

// op is one ICP step: ship the current Jacobian values and residuals,
// apply the returned increment. Opening and closing sequences happens
// between steps, inside the closed loop but outside any step's latency.
func (s *serveICP) op(w, _ int) (time.Time, error) {
	c, cl := s.conns[w], &s.clients[w]
	if cl.seqID == "" {
		if err := s.open(w); err != nil {
			return time.Time{}, err
		}
	}
	g := cl.reg
	c.tr.begin("op")
	defer c.tr.end()
	c.tr.begin("json.enc")
	c.reqBuf = appendStepJSON(c.reqBuf[:0], g.rhs, g.vals)
	c.tr.end()
	r := wireReq{method: http.MethodPost, path: "/v1/sequence/" + cl.seqID + "/step",
		contentType: "application/json", body: c.reqBuf}
	c.tr.begin("http")
	status, body, err := c.do(r)
	c.tr.end()
	if err != nil {
		return time.Time{}, err
	}
	if status != http.StatusOK {
		return time.Time{}, httpError(r, status, body)
	}
	var resp stepResponse
	c.tr.begin("json.dec")
	err = json.Unmarshal(body, &resp)
	c.tr.end()
	done := time.Now()
	if err != nil {
		return done, err
	}

	c.tr.begin("verify")
	defer c.tr.end()
	if !resp.Converged || !lsqOK(g.vals, g.rhs, resp.X, icpTol) {
		return done, errUnverified
	}
	cl.iters = append(cl.iters, resp.Iterations)
	g.advance(resp.X)
	if cl.step++; cl.step < icpSteps {
		return done, nil
	}
	// Registration complete: it must have recovered the known pose.
	if e := g.poseError(); e > icpPoseTol {
		err = fmt.Errorf("registration ended %g from the known pose (limit %g)", e, icpPoseTol)
	}
	if cerr := s.closeSeq(w); err == nil {
		err = cerr
	}
	return done, err
}

func (s *serveICP) run(dur time.Duration, traced bool) (*runResult, error) {
	res := &runResult{tracers: s.trace(traced)}
	for w := range s.clients {
		s.clients[w].iters = s.clients[w].iters[:0]
	}
	res.op = s.timed(res, s.op, icpSteps, func() window { return closedLoop(serveClients, dur, s.op) })
	// The window ends mid-registration: drop the unfinished sequences.
	for w := range s.conns {
		if err := s.closeSeq(w); err != nil {
			return nil, err
		}
	}
	return res, nil
}
