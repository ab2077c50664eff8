package cluster

import (
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"vrcg/cluster/wire"
	"vrcg/solve"
	"vrcg/sparse"
)

// A fleet node takes frames from other machines. These tests are about
// peers that misbehave or vanish: packets in any order, frames from a
// worker that has no business sending them, a coordinator that aborts
// or falls silent in the middle of a reduction.

// TestCombineIsArrivalOrderIndependent: with three workers the partials
// of one reduction reach the coordinator in whatever order the network
// delivers them; the combined sums, and so the whole solve, must not
// depend on it.
func TestCombineIsArrivalOrderIndependent(t *testing.T) {
	f := newTestFleet(t, 3)
	a := sparse.Poisson2D(20)
	b := rhs(a.Dim(), 23)
	if err := f.c.Place("op", a); err != nil {
		t.Fatalf("place: %v", err)
	}
	var first *Result
	for run := 0; run < 5; run++ {
		got, err := f.c.Solve(context.Background(), "op", "cg", b, SolveOpts{Tol: 1e-12})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if first == nil {
			first = got
			continue
		}
		if got.Iterations != first.Iterations {
			t.Errorf("run %d: %d iterations, run 0 took %d", run, got.Iterations, first.Iterations)
		}
		for i := range got.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(first.X[i]) {
				t.Fatalf("run %d: x[%d] = %x, run 0 had %x", run, i, got.X[i], first.X[i])
			}
		}
	}
}

// TestStrayDoneIgnored: a MsgDone from a live worker that holds no
// shard of the operator (the fleet is larger than the shard count) is
// not a result — it must neither complete the solve early nor crash
// the coordinator assembling it.
func TestStrayDoneIgnored(t *testing.T) {
	f := newTestFleet(t, 3)
	a := sparse.TridiagToeplitz(2, 4, -1) // two rows: two shards, w2 idle
	b := []float64{1, 2}
	if err := f.c.Place("op", a); err != nil {
		t.Fatalf("place: %v", err)
	}
	injected := false
	f.c.testAfterCombine = func(solveID, seq uint64) {
		if !injected {
			injected = true
			f.c.forward(runEvent{kind: evDone, workerID: f.ids[2], solveID: solveID, done: doneMsg{SolveID: solveID}})
		}
	}
	got, err := f.c.Solve(context.Background(), "op", "cg", b, SolveOpts{Tol: 1e-12})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if !injected {
		t.Fatal("stray done never injected")
	}
	want := solveSerial(t, "cg", a, b, solve.WithTol(1e-12))
	if d := parityGap(got.X, want.X); d > 1e-12 || got.Workers != 2 {
		t.Fatalf("solution off by %g on %d workers", d, got.Workers)
	}
}

// TestCancelMidSolveThenReuse: cancelling a solve while its workers are
// mid-iteration — in a halo exchange, a product, or a reduction wait —
// returns the caller's error, and the same workers take the next solve.
func TestCancelMidSolveThenReuse(t *testing.T) {
	f := newTestFleet(t, 2)
	a := sparse.Poisson2D(16)
	b := rhs(a.Dim(), 29)
	if err := f.c.Place("op", a); err != nil {
		t.Fatalf("place: %v", err)
	}
	for _, method := range []string{"pipecg", "cg"} {
		ctx, cancel := context.WithCancel(context.Background())
		f.c.testAfterCombine = func(_, seq uint64) {
			if seq == 6 {
				cancel()
			}
		}
		if _, err := f.c.Solve(ctx, "op", method, b, SolveOpts{Tol: 1e-12}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled solve returned %v", method, err)
		}
		f.c.testAfterCombine = nil
		got, err := f.c.Solve(context.Background(), "op", method, b, SolveOpts{Tol: 1e-12})
		if err != nil {
			t.Fatalf("%s after cancel: %v", method, err)
		}
		want := solveSerial(t, method, a, b, solve.WithTol(1e-12))
		if d := parityGap(got.X, want.X); d > 1e-12 || got.Iterations != want.Iterations {
			t.Errorf("%s after cancel: off by %g, %d iterations (serial %d)", method, d, got.Iterations, want.Iterations)
		}
	}
}

// loneCoordinator is a hand-driven coordinator for one worker holding
// the whole operator (one shard, no halo), so a test decides frame by
// frame what the worker's reductions get back.
type loneCoordinator struct {
	t    *testing.T
	conn net.Conn
}

func (lc *loneCoordinator) send(typ byte, e *wire.Enc) {
	lc.t.Helper()
	if err := writeMsg(lc.conn, typ, e); err != nil {
		lc.t.Fatal(err)
	}
}

func (lc *loneCoordinator) read() (byte, []byte) {
	lc.t.Helper()
	lc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := wire.ReadFrame(lc.conn, 0)
	if err != nil {
		lc.t.Fatalf("read frame: %v", err)
	}
	return typ, payload
}

func driveWorker(t *testing.T, w *Worker, a *sparse.CSR) *loneCoordinator {
	t.Helper()
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	lc := &loneCoordinator{t: t, conn: conn}
	lc.send(wire.MsgHello, (&helloMsg{Version: wire.Version, WorkerID: "w0"}).encode())
	if typ, _ := lc.read(); typ != wire.MsgHelloAck {
		t.Fatalf("hello answered with 0x%02x", typ)
	}
	plan, err := BuildPlan(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := plan.Shards[0]
	lc.send(wire.MsgPlace, (&placeMsg{OpID: "op", Gen: 1, NGlobal: plan.N, Row0: sh.Row0, Row1: sh.Row1,
		RowPtr: sh.RowPtr, Cols: sh.Cols, Vals: sh.Vals}).encode())
	if typ, _ := lc.read(); typ != wire.MsgPlaceAck {
		t.Fatalf("place answered with 0x%02x", typ)
	}
	return lc
}

// solve starts solve id and answers each reduction with the worker's
// own partials (one shard: they are the sums) until it reports. From
// reduction stopAt on nothing is answered: atStop runs once, and solve
// returns when the worker reports or, if it stays silent, after atStop.
// Frames of any solve but id fail the test.
func (lc *loneCoordinator) solve(id uint64, method string, b []float64, stopAt uint64, atStop func()) (*doneMsg, *errMsg) {
	lc.t.Helper()
	lc.send(wire.MsgSolve, (&solveMsg{SolveID: id, OpID: "op", Gen: 1, Method: method, Tol: 1e-12, B: b}).encode())
	for {
		typ, payload := lc.read()
		switch typ {
		case wire.MsgPartials:
			var m reduceMsg
			if err := decodeReduce(payload, &m); err != nil || m.SolveID != id {
				lc.t.Fatalf("partials of solve %d during %d (%v)", m.SolveID, id, err)
			}
			if stopAt != 0 && m.Seq >= stopAt {
				if atStop == nil {
					continue
				}
				atStop()
				return nil, nil
			}
			lc.send(wire.MsgCombined, m.encode())
		case wire.MsgDone:
			m, err := decodeDone(payload)
			if err != nil || m.SolveID != id {
				lc.t.Fatalf("done of solve %d during %d (%v)", m.SolveID, id, err)
			}
			return &m, nil
		case wire.MsgErr:
			m, err := decodeErr(payload)
			if err != nil || m.SolveID != id {
				lc.t.Fatalf("error of solve %d during %d (%v): %s", m.SolveID, id, err, m.Detail)
			}
			return nil, &m
		default:
			lc.t.Fatalf("unexpected frame 0x%02x", typ)
		}
	}
}

// TestTransportFailureMidReduction: a worker whose reduction is in
// flight — pipecg's, posted and overlapped with the next product; cg's,
// blocked on — when the coordinator aborts says nothing more about that
// solve; when the coordinator just never answers it reports a transport
// error, not a numerical breakdown. Either way no reduction is left
// behind: the same worker then runs the same solve to the serial
// answer.
func TestTransportFailureMidReduction(t *testing.T) {
	a := sparse.Poisson2D(10)
	b := rhs(a.Dim(), 31)
	w, err := NewWorker(WorkerConfig{HaloTimeout: 300 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	lc := driveWorker(t, w, a)

	id := uint64(0)
	for _, method := range []string{"pipecg", "cg"} {
		want := solveSerial(t, method, a, b, solve.WithTol(1e-12))
		check := func(after string) {
			t.Helper()
			id++
			done, errm := lc.solve(id, method, b, 0, nil)
			if errm != nil {
				t.Fatalf("%s after %s: %s: %s", method, after, errm.Code, errm.Detail)
			}
			if d := parityGap(done.X, want.X); d > 1e-12 || done.Iterations != want.Iterations || !done.Converged {
				t.Errorf("%s after %s: off by %g, %d iterations (serial %d)", method, after, d, done.Iterations, want.Iterations)
			}
		}

		id++
		aborted := id
		lc.solve(id, method, b, 7, func() { lc.send(wire.MsgAbort, (&seqMsg{V: aborted}).encode()) })
		check("abort") // a late report of the aborted solve would fail in here

		id++
		_, errm := lc.solve(id, method, b, 7, nil)
		if errm == nil || errm.Code != codeInternal || !strings.Contains(errm.Detail, "allreduce timeout") {
			t.Fatalf("%s: silent coordinator reported as %+v, want an allreduce timeout", method, errm)
		}
		check("timeout")
	}
}

// malformedPlacement is a placement install must refuse: each breaks
// one thing the solve goroutine indexes by, and each was once accepted.
type malformedPlacement struct {
	name string
	m    placeMsg
}

// placement is a well-formed two-row shard that reads one halo value
// from w1, after edit.
func placement(edit func(m *placeMsg)) placeMsg {
	m := placeMsg{OpID: "op", Gen: 1, NGlobal: 4, Row0: 0, Row1: 2,
		RowPtr: []int{0, 1, 2}, Cols: []int32{0, 2}, Vals: []float64{1, 1}, HaloN: 1,
		Recv: []placeRecv{{FromID: "w1", Off: 0, Count: 1}}}
	edit(&m)
	return m
}

func malformedPlacements() []malformedPlacement {
	return []malformedPlacement{
		{"rowptr starts past 0", placement(func(m *placeMsg) { m.RowPtr = []int{1, 1, 2} })},
		{"rowptr falls", placement(func(m *placeMsg) { m.RowPtr = []int{0, 3, 1}; m.Cols, m.Vals = m.Cols[:1], m.Vals[:1] })},
		{"negative halo width", placement(func(m *placeMsg) {
			m.RowPtr, m.Cols, m.Vals, m.HaloN, m.Recv = []int{0, 0, 0}, nil, nil, -1, nil
		})},
		{"halo wider than the entries", placement(func(m *placeMsg) { m.HaloN = 1 << 40 })},
		{"send index negative", placement(func(m *placeMsg) {
			m.Send = []placeSend{{ToID: "w1", ToAddr: "127.0.0.1:1", Local: []int{0, -1}}}
		})},
		{"send index past the owned rows", placement(func(m *placeMsg) {
			m.Send = []placeSend{{ToID: "w1", ToAddr: "127.0.0.1:1", Local: []int{2}}}
		})},
		{"recv offset negative", placement(func(m *placeMsg) { m.Recv[0].Off = -1 })},
		{"recv count negative", placement(func(m *placeMsg) { m.Recv[0].Count = -1 })},
		{"recv past the halo", placement(func(m *placeMsg) { m.Recv[0].Off, m.Recv[0].Count = 1, 1 })},
	}
}

// TestInstallRefusesMalformedPlacement: a placement comes off the wire,
// and a solve on a bad one panics in a goroutine with no recover — the
// whole worker exits. install refuses each with its malformed-shard
// error instead, and still accepts the placement every case was made
// from.
func TestInstallRefusesMalformedPlacement(t *testing.T) {
	w, err := NewWorker(WorkerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, tc := range malformedPlacements() {
		err := w.install(&tc.m)
		if err == nil || !strings.Contains(err.Error(), "malformed shard") {
			t.Errorf("%s: install returned %v, want a malformed shard error", tc.name, err)
		}
	}
	good := placement(func(*placeMsg) {})
	if err := w.install(&good); err != nil {
		t.Fatalf("install refused a well-formed placement: %v", err)
	}
}
