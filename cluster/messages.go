package cluster

import (
	"fmt"
	"io"

	"vrcg/cluster/wire"
)

// This file maps the cluster's typed messages onto wire payloads. Every
// message has an encode (into a pooled wire.Enc the caller releases)
// and a decode (from a frame payload, with the decoder's sticky error
// checked once). Hot-path messages — halo, partials, combined — carry a
// solve id and sequence number so stale frames from an aborted solve
// are identifiable and droppable.

// helloMsg is MsgHello: the coordinator introduces itself and assigns
// the worker its fleet id.
type helloMsg struct {
	Version  uint32
	WorkerID string
}

func (m *helloMsg) encode() *wire.Enc {
	e := wire.NewEnc(32)
	e.U32(m.Version)
	e.Str(m.WorkerID)
	return e
}

func decodeHello(b []byte) (helloMsg, error) {
	d := wire.NewDec(b)
	m := helloMsg{Version: d.U32(), WorkerID: d.Str()}
	return m, d.Err()
}

// placeRecv / placeSend are the halo schedule entries of placeMsg,
// addressed by worker id (the plan's shard indices are a coordinator
// concern; workers only ever talk to named peers).
type placeRecv struct {
	FromID string
	Off    int
	Count  int
}

type placeSend struct {
	ToID   string
	ToAddr string
	Local  []int
}

// placeMsg is MsgPlace: one operator shard plus its halo schedule.
type placeMsg struct {
	OpID    string
	Gen     uint64
	NGlobal int
	Row0    int
	Row1    int
	RowPtr  []int
	Cols    []int32
	Vals    []float64
	HaloN   int
	Recv    []placeRecv
	Send    []placeSend
}

func (m *placeMsg) encode() *wire.Enc {
	e := wire.NewEnc(64 + 8*(len(m.RowPtr)+len(m.Vals)) + 4*len(m.Cols))
	e.Str(m.OpID)
	e.U64(m.Gen)
	e.U64(uint64(m.NGlobal))
	e.U64(uint64(m.Row0))
	e.U64(uint64(m.Row1))
	e.Ints(m.RowPtr)
	e.Int32s(m.Cols)
	e.F64s(m.Vals)
	e.U64(uint64(m.HaloN))
	e.U32(uint32(len(m.Recv)))
	for _, r := range m.Recv {
		e.Str(r.FromID)
		e.U64(uint64(r.Off))
		e.U64(uint64(r.Count))
	}
	e.U32(uint32(len(m.Send)))
	for _, s := range m.Send {
		e.Str(s.ToID)
		e.Str(s.ToAddr)
		e.Ints(s.Local)
	}
	return e
}

func decodePlace(b []byte) (placeMsg, error) {
	d := wire.NewDec(b)
	m := placeMsg{
		OpID:    d.Str(),
		Gen:     d.U64(),
		NGlobal: int(d.U64()),
		Row0:    int(d.U64()),
		Row1:    int(d.U64()),
		RowPtr:  d.Ints(nil),
		Cols:    d.Int32s(nil),
		Vals:    d.F64s(nil),
	}
	m.HaloN = int(d.U64())
	nr := int(d.U32())
	if d.Err() != nil {
		return m, d.Err()
	}
	for i := 0; i < nr && d.Err() == nil; i++ {
		m.Recv = append(m.Recv, placeRecv{FromID: d.Str(), Off: int(d.U64()), Count: int(d.U64())})
	}
	ns := int(d.U32())
	for i := 0; i < ns && d.Err() == nil; i++ {
		m.Send = append(m.Send, placeSend{ToID: d.Str(), ToAddr: d.Str(), Local: d.Ints(nil)})
	}
	return m, d.Err()
}

// ackMsg serves MsgPlaceAck (and MsgDrop uses just the op id).
type ackMsg struct {
	OpID string
	Gen  uint64
}

func (m *ackMsg) encode() *wire.Enc {
	e := wire.NewEnc(32)
	e.Str(m.OpID)
	e.U64(m.Gen)
	return e
}

func decodeAck(b []byte) (ackMsg, error) {
	d := wire.NewDec(b)
	m := ackMsg{OpID: d.Str(), Gen: d.U64()}
	return m, d.Err()
}

// solveMsg is MsgSolve: start one distributed solve on this worker's
// shard of the operator. B is the shard's slice of the right-hand side.
type solveMsg struct {
	SolveID uint64
	OpID    string
	Gen     uint64
	Method  string
	Precond string
	Tol     float64
	MaxIter int
	B       []float64
}

func (m *solveMsg) encode() *wire.Enc {
	e := wire.NewEnc(64 + 8*len(m.B))
	e.U64(m.SolveID)
	e.Str(m.OpID)
	e.U64(m.Gen)
	e.Str(m.Method)
	e.Str(m.Precond)
	e.F64(m.Tol)
	e.U64(uint64(m.MaxIter))
	e.F64s(m.B)
	return e
}

func decodeSolve(b []byte) (solveMsg, error) {
	d := wire.NewDec(b)
	m := solveMsg{
		SolveID: d.U64(),
		OpID:    d.Str(),
		Gen:     d.U64(),
		Method:  d.Str(),
		Precond: d.Str(),
		Tol:     d.F64(),
		MaxIter: int(d.U64()),
	}
	m.B = d.F64s(nil)
	return m, d.Err()
}

// reduceMsg serves MsgPartials (worker contributions) and MsgCombined
// (the coordinator's sums), and haloMsg shares its shape.
type reduceMsg struct {
	SolveID uint64
	Seq     uint64
	Vals    []float64
}

func (m *reduceMsg) encode() *wire.Enc {
	e := wire.NewEnc(32 + 8*len(m.Vals))
	e.U64(m.SolveID)
	e.U64(m.Seq)
	e.F64s(m.Vals)
	return e
}

// decodeReduce decodes into dst's Vals to keep steady-state reuse.
func decodeReduce(b []byte, dst *reduceMsg) error {
	d := wire.NewDec(b)
	dst.SolveID = d.U64()
	dst.Seq = d.U64()
	dst.Vals = d.F64s(dst.Vals)
	return d.Err()
}

// doneMsg is MsgDone: the shard of the solution plus per-worker stats
// and phase timings.
type doneMsg struct {
	SolveID    uint64
	Iterations int
	Converged  bool
	ResNorm    float64
	X          []float64
	Stats      runStats
	Phases     phaseSet
}

// runStats are the operation counts a worker accumulates during one
// distributed solve.
type runStats struct {
	MatVecs       uint64
	InnerProducts uint64
	VectorUpdates uint64
	PrecondSolves uint64
}

func (m *doneMsg) encode() *wire.Enc {
	e := wire.NewEnc(128 + 8*len(m.X))
	e.U64(m.SolveID)
	e.U64(uint64(m.Iterations))
	if m.Converged {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.F64(m.ResNorm)
	e.F64s(m.X)
	e.U64(m.Stats.MatVecs)
	e.U64(m.Stats.InnerProducts)
	e.U64(m.Stats.VectorUpdates)
	e.U64(m.Stats.PrecondSolves)
	m.Phases.encode(e)
	return e
}

func decodeDone(b []byte) (doneMsg, error) {
	d := wire.NewDec(b)
	m := doneMsg{
		SolveID:    d.U64(),
		Iterations: int(d.U64()),
		Converged:  d.U8() == 1,
		ResNorm:    d.F64(),
		X:          d.F64s(nil),
	}
	m.Stats = runStats{
		MatVecs:       d.U64(),
		InnerProducts: d.U64(),
		VectorUpdates: d.U64(),
		PrecondSolves: d.U64(),
	}
	if err := m.Phases.decode(d); err != nil {
		return m, err
	}
	return m, d.Err()
}

// errMsg is MsgErr: a worker-side solve failure with a stable code the
// coordinator maps back onto the solve package's sentinels.
type errMsg struct {
	SolveID uint64
	Code    string
	Detail  string
}

func (m *errMsg) encode() *wire.Enc {
	e := wire.NewEnc(64)
	e.U64(m.SolveID)
	e.Str(m.Code)
	e.Str(m.Detail)
	return e
}

func decodeErr(b []byte) (errMsg, error) {
	d := wire.NewDec(b)
	m := errMsg{SolveID: d.U64(), Code: d.Str(), Detail: d.Str()}
	return m, d.Err()
}

// seqMsg serves MsgPing/MsgPong/MsgAbort (one u64).
type seqMsg struct{ V uint64 }

func (m *seqMsg) encode() *wire.Enc {
	e := wire.NewEnc(8)
	e.U64(m.V)
	return e
}

func decodeSeq(b []byte) (seqMsg, error) {
	d := wire.NewDec(b)
	m := seqMsg{V: d.U64()}
	return m, d.Err()
}

// strMsg serves MsgPeerHello (worker id), MsgDrop (op id), MsgHelloAck.
type strMsg struct{ S string }

func (m *strMsg) encode() *wire.Enc {
	e := wire.NewEnc(32)
	e.Str(m.S)
	return e
}

func decodeStr(b []byte) (strMsg, error) {
	d := wire.NewDec(b)
	m := strMsg{S: d.Str()}
	return m, d.Err()
}

// writeMsg frames and writes one encoded message, releasing the
// encoder.
func writeMsg(w io.Writer, typ byte, e *wire.Enc) error {
	err := wire.WriteFrame(w, typ, e.B)
	e.Release()
	if err != nil {
		return fmt.Errorf("cluster: write frame 0x%02x: %w", typ, err)
	}
	return nil
}
