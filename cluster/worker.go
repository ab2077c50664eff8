package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"vrcg/cluster/wire"
	"vrcg/precond"
	"vrcg/sparse"
)

// WorkerConfig tunes one fleet member.
type WorkerConfig struct {
	// Addr is the listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// MaxPayload bounds incoming frame payloads; 0 applies the wire
	// default.
	MaxPayload int
	// HaloTimeout bounds how long a solve waits for one iteration's
	// halo messages before failing (a dead peer is normally detected by
	// the coordinator's heartbeat first; this is the backstop). Zero
	// means 30s.
	HaloTimeout time.Duration
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Worker is one fleet member: it owns shards of placed operators and
// executes its share of distributed solves under the coordinator's
// direction. A worker is passive — it never dials the coordinator; it
// accepts one control connection (frames: Hello, Ping, Place, Drop,
// Solve, Combined, Abort) and any number of peer connections carrying
// batched halo messages from other workers.
type Worker struct {
	cfg WorkerConfig
	ln  net.Listener

	mu     sync.Mutex
	id     string
	closed bool
	shards map[string]*workerShard // by operator name
	peerIn map[string]chan haloFrame
	// stash holds halo frames that arrived for a newer solve while an
	// aborted one was still draining; the new solve consumes them first.
	stash  map[string][]haloFrame
	out    map[string]*peerLink // outgoing halo links by worker id
	active *workerSolve
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// haloFrame is one decoded MsgHalo in a per-sender FIFO.
type haloFrame struct {
	solveID uint64
	seq     uint64
	vals    []float64
}

// peerLink is one persistent outgoing connection to a peer worker.
type peerLink struct {
	addr string
	mu   sync.Mutex
	conn net.Conn
}

// workerShard is an installed operator shard plus cached subdomain
// preconditioners (block-Jacobi locals built on the diagonal block).
type workerShard struct {
	opID    string
	gen     uint64
	nGlobal int
	sh      *Shard
	recvs   []placeRecv
	sends   []wsSend
	blk     *sparse.CSR // lazily extracted diagonal block
	pre     map[string]precond.Preconditioner
}

// diagBlock lazily extracts and caches the shard's subdomain operator.
func (ws *workerShard) diagBlock() *sparse.CSR {
	if ws.blk == nil {
		ws.blk = ws.sh.DiagBlock()
	}
	return ws.blk
}

type wsSend struct {
	link  *peerLink
	local []int
}

// workerSolve is the state of the one in-flight solve.
type workerSolve struct {
	id        uint64
	combined  chan []float64
	abort     chan struct{}
	done      chan struct{}
	abortOnce sync.Once
}

func (s *workerSolve) cancel() { s.abortOnce.Do(func() { close(s.abort) }) }

// NewWorker starts a worker listening on cfg.Addr.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.HaloTimeout <= 0 {
		cfg.HaloTimeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker listen: %w", err)
	}
	w := &Worker{
		cfg:    cfg,
		ln:     ln,
		shards: make(map[string]*workerShard),
		peerIn: make(map[string]chan haloFrame),
		stash:  make(map[string][]haloFrame),
		out:    make(map[string]*peerLink),
		conns:  make(map[net.Conn]struct{}),
	}
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Addr returns the worker's bound listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// ID returns the fleet id assigned by the coordinator's Hello (empty
// before registration).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Close shuts the worker down: the listener, every connection, and any
// in-flight solve.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	if w.active != nil {
		w.active.cancel()
	}
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	links := make([]*peerLink, 0, len(w.out))
	for _, l := range w.out {
		links = append(links, l)
	}
	w.mu.Unlock()

	err := w.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	for _, l := range links {
		l.mu.Lock()
		if l.conn != nil {
			l.conn.Close()
		}
		l.mu.Unlock()
	}
	w.wg.Wait()
	return err
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go w.serveConn(conn)
	}
}

func (w *Worker) dropConn(conn net.Conn) {
	conn.Close()
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

// serveConn classifies an incoming connection by its first frame:
// MsgHello makes it the coordinator control connection, MsgPeerHello a
// peer halo stream.
func (w *Worker) serveConn(conn net.Conn) {
	defer w.wg.Done()
	defer w.dropConn(conn)
	typ, payload, err := wire.ReadFrame(conn, w.cfg.MaxPayload)
	if err != nil {
		return
	}
	switch typ {
	case wire.MsgHello:
		hello, derr := decodeHello(payload)
		wire.PutBuf(payload)
		if derr != nil || hello.Version != wire.Version {
			w.logf("worker: rejecting hello (err=%v version=%d)", derr, hello.Version)
			return
		}
		w.mu.Lock()
		w.id = hello.WorkerID
		w.mu.Unlock()
		ack := &strMsg{S: hello.WorkerID}
		if err := writeMsg(conn, wire.MsgHelloAck, ack.encode()); err != nil {
			return
		}
		w.controlLoop(conn)
	case wire.MsgPeerHello:
		peer, derr := decodeStr(payload)
		wire.PutBuf(payload)
		if derr != nil {
			return
		}
		w.haloLoop(conn, peer.S)
	default:
		wire.PutBuf(payload)
		w.logf("worker: unexpected first frame 0x%02x", typ)
	}
}

// inChan returns (creating if needed) the FIFO for halo frames from one
// named peer.
func (w *Worker) inChan(peer string) chan haloFrame {
	w.mu.Lock()
	defer w.mu.Unlock()
	ch := w.peerIn[peer]
	if ch == nil {
		ch = make(chan haloFrame, 16)
		w.peerIn[peer] = ch
	}
	return ch
}

// stashPut parks a halo frame addressed to a solve newer than the one
// currently draining.
func (w *Worker) stashPut(peer string, f haloFrame) {
	w.mu.Lock()
	w.stash[peer] = append(w.stash[peer], f)
	w.mu.Unlock()
}

// stashTake pops the stashed frame matching (solveID, seq) from a
// peer's stash, dropping any frames for older solves along the way.
func (w *Worker) stashTake(peer string, solveID, seq uint64) (haloFrame, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	frames := w.stash[peer]
	kept := frames[:0]
	var match haloFrame
	found := false
	for _, f := range frames {
		switch {
		case f.solveID < solveID || (f.solveID == solveID && f.seq < seq):
			// stale: drop
		case !found && f.solveID == solveID && f.seq == seq:
			match, found = f, true
		default:
			kept = append(kept, f)
		}
	}
	w.stash[peer] = kept
	return match, found
}

// haloLoop drains one peer's halo stream into its FIFO. If the consumer
// stalls past HaloTimeout the frame is dropped — that only happens when
// no solve is draining (aborted mid-iteration), and the stale solve id
// makes dropped frames harmless.
func (w *Worker) haloLoop(conn net.Conn, peer string) {
	ch := w.inChan(peer)
	timer := time.NewTimer(w.cfg.HaloTimeout)
	defer timer.Stop()
	for {
		typ, payload, err := wire.ReadFrame(conn, w.cfg.MaxPayload)
		if err != nil {
			return
		}
		if typ != wire.MsgHalo {
			wire.PutBuf(payload)
			continue
		}
		var m reduceMsg
		derr := decodeReduce(payload, &m)
		wire.PutBuf(payload)
		if derr != nil {
			w.logf("worker: bad halo frame from %s: %v", peer, derr)
			return
		}
		f := haloFrame{solveID: m.SolveID, seq: m.Seq, vals: m.Vals}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(w.cfg.HaloTimeout)
		select {
		case ch <- f:
		case <-timer.C:
			w.logf("worker: dropping stalled halo frame from %s (solve %d seq %d)", peer, f.solveID, f.seq)
		}
	}
}

// controlLoop is the coordinator connection's reader. Writes to the
// connection (acks, partials, done) are serialized with wmu since the
// solve goroutine shares it.
func (w *Worker) controlLoop(conn net.Conn) {
	var wmu sync.Mutex
	send := func(typ byte, e *wire.Enc) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeMsg(conn, typ, e)
	}
	defer func() {
		// Coordinator gone: any in-flight solve can never finish its
		// reductions — cancel it.
		w.mu.Lock()
		if w.active != nil {
			w.active.cancel()
		}
		w.mu.Unlock()
	}()
	for {
		typ, payload, err := wire.ReadFrame(conn, w.cfg.MaxPayload)
		if err != nil {
			return
		}
		switch typ {
		case wire.MsgPing:
			m, derr := decodeSeq(payload)
			wire.PutBuf(payload)
			if derr != nil {
				return
			}
			if err := send(wire.MsgPong, (&seqMsg{V: m.V}).encode()); err != nil {
				return
			}
		case wire.MsgPlace:
			m, derr := decodePlace(payload)
			wire.PutBuf(payload)
			if derr != nil {
				w.logf("worker: bad place: %v", derr)
				return
			}
			if err := w.install(&m); err != nil {
				w.logf("worker: place %s: %v", m.OpID, err)
				ee := &errMsg{Code: codeInternal, Detail: err.Error()}
				if serr := send(wire.MsgErr, ee.encode()); serr != nil {
					return
				}
				continue
			}
			if err := send(wire.MsgPlaceAck, (&ackMsg{OpID: m.OpID, Gen: m.Gen}).encode()); err != nil {
				return
			}
		case wire.MsgDrop:
			m, derr := decodeStr(payload)
			wire.PutBuf(payload)
			if derr != nil {
				return
			}
			w.mu.Lock()
			delete(w.shards, m.S)
			w.mu.Unlock()
		case wire.MsgSolve:
			m, derr := decodeSolve(payload)
			wire.PutBuf(payload)
			if derr != nil {
				w.logf("worker: bad solve: %v", derr)
				return
			}
			w.startSolve(&m, send)
		case wire.MsgCombined:
			var m reduceMsg
			derr := decodeReduce(payload, &m)
			wire.PutBuf(payload)
			if derr != nil {
				return
			}
			w.mu.Lock()
			s := w.active
			w.mu.Unlock()
			if s == nil || s.id != m.SolveID {
				continue // stale combined from an aborted solve
			}
			vals := make([]float64, len(m.Vals))
			copy(vals, m.Vals)
			select {
			case s.combined <- vals:
			case <-s.abort:
			}
		case wire.MsgAbort:
			m, derr := decodeSeq(payload)
			wire.PutBuf(payload)
			if derr != nil {
				return
			}
			w.mu.Lock()
			if w.active != nil && w.active.id == m.V {
				w.active.cancel()
			}
			w.mu.Unlock()
		default:
			wire.PutBuf(payload)
			w.logf("worker: unknown control frame 0x%02x", typ)
		}
	}
}

// install builds a workerShard from a placement, dialing (or reusing)
// peer links for its halo sends.
func (w *Worker) install(m *placeMsg) error {
	ws, err := newWorkerShard(m)
	if err != nil {
		return err
	}
	for i, s := range m.Send {
		if ws.sends[i].link, err = w.peerLinkTo(s.ToID, s.ToAddr); err != nil {
			return err
		}
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.shards[m.OpID] = ws
	w.mu.Unlock()
	return nil
}

// newWorkerShard checks a placement and builds its shard, with the
// halo sends' peer links still to dial. Placements come off the wire,
// so anything the solve would index by is checked here, where a bad one
// is an error, and not in the solve goroutine, where it would be a
// panic: RowPtr starts at 0, never decreases and ends at len(Cols);
// every column lies in [0, NLocal+HaloN); HaloN is at most the entry
// count, as in any plan (each halo value is read by an entry), which
// also bounds the iterate the solve allocates; every Local lies in
// [0, NLocal), and every Recv region in [0, HaloN).
func newWorkerShard(m *placeMsg) (*workerShard, error) {
	nl := m.Row1 - m.Row0
	if nl < 0 || len(m.RowPtr) != nl+1 || m.RowPtr[0] != 0 {
		return nil, fmt.Errorf("malformed shard: rows [%d,%d) rowptr %d", m.Row0, m.Row1, len(m.RowPtr))
	}
	for i := 0; i < nl; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return nil, fmt.Errorf("malformed shard: rowptr falls at row %d (%d then %d)", i, m.RowPtr[i], m.RowPtr[i+1])
		}
	}
	nnz := m.RowPtr[nl]
	if len(m.Cols) != nnz || len(m.Vals) != nnz {
		return nil, fmt.Errorf("malformed shard: nnz %d cols %d vals %d", nnz, len(m.Cols), len(m.Vals))
	}
	if m.HaloN < 0 || m.HaloN > nnz {
		return nil, fmt.Errorf("malformed shard: halo width %d for %d entries", m.HaloN, nnz)
	}
	for _, c := range m.Cols {
		if c < 0 || int(c) >= nl+m.HaloN {
			return nil, fmt.Errorf("malformed shard: column %d outside local space %d", c, nl+m.HaloN)
		}
	}
	for _, r := range m.Recv {
		if r.Off < 0 || r.Count < 0 || r.Off > m.HaloN || r.Count > m.HaloN-r.Off {
			return nil, fmt.Errorf("malformed shard: halo batch [%d,+%d) from %s outside halo width %d", r.Off, r.Count, r.FromID, m.HaloN)
		}
	}
	ws := &workerShard{
		opID:    m.OpID,
		gen:     m.Gen,
		nGlobal: m.NGlobal,
		sh: &Shard{
			Row0: m.Row0, Row1: m.Row1,
			RowPtr: m.RowPtr, Cols: m.Cols, Vals: m.Vals,
			HaloN: m.HaloN,
		},
		recvs: m.Recv,
		pre:   make(map[string]precond.Preconditioner),
	}
	for _, s := range m.Send {
		for _, li := range s.Local {
			if li < 0 || li >= nl {
				return nil, fmt.Errorf("malformed shard: send to %s gathers index %d outside %d owned rows", s.ToID, li, nl)
			}
		}
		ws.sends = append(ws.sends, wsSend{local: s.Local})
	}
	return ws, nil
}

// peerLinkTo returns a persistent halo link to the named peer, dialing
// and introducing itself on first use (or after the peer's address
// changed).
func (w *Worker) peerLinkTo(id, addr string) (*peerLink, error) {
	w.mu.Lock()
	link := w.out[id]
	if link == nil || link.addr != addr {
		link = &peerLink{addr: addr}
		w.out[id] = link
	}
	myID := w.id
	w.mu.Unlock()

	link.mu.Lock()
	defer link.mu.Unlock()
	if link.conn != nil {
		return link, nil
	}
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial peer %s at %s: %w", id, addr, err)
	}
	if err := writeMsg(conn, wire.MsgPeerHello, (&strMsg{S: myID}).encode()); err != nil {
		conn.Close()
		return nil, err
	}
	link.conn = conn
	return link, nil
}

// sendHalo writes one batched halo frame on a peer link.
func (l *peerLink) sendHalo(m *reduceMsg) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return errors.New("cluster: peer link closed")
	}
	if err := writeMsg(l.conn, wire.MsgHalo, m.encode()); err != nil {
		l.conn.Close()
		l.conn = nil
		return err
	}
	return nil
}

// startSolve validates the request against installed shards and spawns
// the solve goroutine. If a previous solve is still draining after an
// abort, it waits for it (bounded by the halo timeout) so the two never
// overlap.
func (w *Worker) startSolve(m *solveMsg, send func(byte, *wire.Enc) error) {
	fail := func(code, detail string) {
		ee := &errMsg{SolveID: m.SolveID, Code: code, Detail: detail}
		if err := send(wire.MsgErr, ee.encode()); err != nil {
			w.logf("worker: report error: %v", err)
		}
	}
	w.mu.Lock()
	if prev := w.active; prev != nil {
		w.mu.Unlock()
		prev.cancel()
		select {
		case <-prev.done:
		case <-time.After(w.cfg.HaloTimeout):
			fail(codeInternal, "previous solve did not stop")
			return
		}
		w.mu.Lock()
	}
	ws := w.shards[m.OpID]
	if ws == nil {
		w.mu.Unlock()
		fail(codeUnknownOperator, m.OpID)
		return
	}
	if ws.gen != m.Gen {
		w.mu.Unlock()
		fail(codeStalePlacement, fmt.Sprintf("op %s gen %d, have %d", m.OpID, m.Gen, ws.gen))
		return
	}
	if len(m.B) != ws.sh.NLocal() {
		w.mu.Unlock()
		fail(codeInternal, fmt.Sprintf("rhs shard %d for %d local rows", len(m.B), ws.sh.NLocal()))
		return
	}
	s := &workerSolve{
		id:       m.SolveID,
		combined: make(chan []float64, 4),
		abort:    make(chan struct{}),
		done:     make(chan struct{}),
	}
	w.active = s
	w.mu.Unlock()

	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer close(s.done)
		defer func() {
			w.mu.Lock()
			if w.active == s {
				w.active = nil
			}
			w.mu.Unlock()
		}()
		w.runSolve(s, ws, m, send)
	}()
}
