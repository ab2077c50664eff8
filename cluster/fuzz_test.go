package cluster

import (
	"testing"

	"vrcg/cluster/wire"
	"vrcg/sparse"
)

// FuzzDecodeGeneral drives every cluster message decoder over arbitrary
// payloads. The decoders sit directly behind ReadFrame on both the
// coordinator and worker control loops, so a hostile or corrupt peer
// reaches them with any byte string it likes: they must never panic and
// must surface truncation through the decoder's sticky error, not
// through runtime faults. Length-prefix validation in wire.Dec is what
// keeps a forged element count from turning into a giant allocation.
func FuzzDecodeGeneral(f *testing.F) {
	// Well-formed seeds, one per message shape.
	hello := helloMsg{Version: wire.Version, WorkerID: "w0"}
	e := hello.encode()
	f.Add(byte(0), append([]byte(nil), e.B...))
	e.Release()

	// A place message with duplicate and out-of-range column indices:
	// decodable garbage the worker-side shard install must survive.
	place := placeMsg{
		OpID: "op", Gen: 3, NGlobal: 4, Row0: 0, Row1: 2,
		RowPtr: []int{0, 2, 4},
		Cols:   []int32{1, 1, 7, 7},
		Vals:   []float64{1, 2, 3, 4},
		HaloN:  1,
		Recv:   []placeRecv{{FromID: "w1", Off: 2, Count: 1}},
		Send:   []placeSend{{ToID: "w1", ToAddr: "127.0.0.1:0", Local: []int{0, 0}}},
	}
	e = place.encode()
	f.Add(byte(1), append([]byte(nil), e.B...))
	e.Release()

	slv := solveMsg{SolveID: 9, OpID: "op", Gen: 3, Method: "cg",
		Tol: 1e-8, MaxIter: 100, B: []float64{1, 2}}
	e = slv.encode()
	f.Add(byte(3), append([]byte(nil), e.B...))
	e.Release()

	red := reduceMsg{SolveID: 9, Seq: 4, Vals: []float64{0.5, -0.5}}
	e = red.encode()
	f.Add(byte(4), append([]byte(nil), e.B...))
	e.Release()

	// A MsgDone whose phases declare 2^32−1 buckets each: refused at the
	// count, before any bucket is read.
	f.Add(byte(5), forgedDone(1<<32-1))

	f.Fuzz(func(t *testing.T, which byte, payload []byte) {
		switch which % 9 {
		case 0:
			m, err := decodeHello(payload)
			if err == nil && m.Version == 0 && len(payload) < 4 {
				t.Fatal("short payload decoded without error")
			}
		case 1:
			m, err := decodePlace(payload)
			if err == nil {
				// Decoded lengths must be backed by real payload bytes —
				// the length-prefix validation contract.
				if 8*len(m.RowPtr)+4*len(m.Cols)+8*len(m.Vals) > len(payload) {
					t.Fatalf("decoded slices larger than the payload: %d+%d+%d elems from %d bytes",
						len(m.RowPtr), len(m.Cols), len(m.Vals), len(payload))
				}
			}
		case 2:
			decodeAck(payload)
		case 3:
			decodeSolve(payload)
		case 4:
			var m reduceMsg
			decodeReduce(payload, &m)
			// Reuse path: a second decode into the same struct must be
			// just as safe.
			decodeReduce(payload, &m)
		case 5:
			decodeDone(payload)
		case 6:
			decodeErr(payload)
		case 7:
			decodeSeq(payload)
		case 8:
			decodeStr(payload)
		}
	})
}

// FuzzPlaceRoundTrip pins encode/decode symmetry for the richest
// message: any placeMsg assembled from the fuzzed skeleton must decode
// back field-for-field.
func FuzzPlaceRoundTrip(f *testing.F) {
	f.Add("op-a", uint64(1), 16, 0, 8, 4, "w1", "w2")
	f.Fuzz(func(t *testing.T, opID string, gen uint64, nglobal, row0, row1, nnz int, from, to string) {
		if nnz < 0 || nnz > 1024 {
			return
		}
		m := placeMsg{OpID: opID, Gen: gen, NGlobal: nglobal, Row0: row0, Row1: row1,
			RowPtr: make([]int, nnz/4+1), Cols: make([]int32, nnz), Vals: make([]float64, nnz),
			HaloN: nnz % 7,
			Recv:  []placeRecv{{FromID: from, Off: row0, Count: row1}},
			Send:  []placeSend{{ToID: to, ToAddr: to + ":0", Local: []int{nnz}}},
		}
		for i := range m.Cols {
			m.Cols[i] = int32((i * 7) % (nnz + 1))
			m.Vals[i] = float64(i) / 3
		}
		e := m.encode()
		got, err := decodePlace(e.B)
		e.Release()
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if got.OpID != m.OpID || got.Gen != m.Gen || got.NGlobal != m.NGlobal ||
			got.Row0 != m.Row0 || got.Row1 != m.Row1 || got.HaloN != m.HaloN {
			t.Fatalf("scalar fields: got %+v want %+v", got, m)
		}
		if len(got.RowPtr) != len(m.RowPtr) || len(got.Cols) != len(m.Cols) || len(got.Vals) != len(m.Vals) {
			t.Fatalf("slice lengths differ")
		}
		for i := range m.Cols {
			if got.Cols[i] != m.Cols[i] || got.Vals[i] != m.Vals[i] {
				t.Fatalf("element %d differs", i)
			}
		}
		if len(got.Recv) != 1 || got.Recv[0] != m.Recv[0] {
			t.Fatalf("recv schedule differs")
		}
		if len(got.Send) != 1 || got.Send[0].ToID != to || len(got.Send[0].Local) != 1 {
			t.Fatalf("send schedule differs")
		}
	})
}

// FuzzPlaceInstall holds the worker to what it installs: any decoded
// placeMsg that newWorkerShard (install's check, short of dialing the
// peers) accepts must survive, on arbitrary x, the shard product, every
// halo gather and landing, and a halo-free shardOp product — all of it
// runs in the solve goroutine, where a panic takes the worker down.
func FuzzPlaceInstall(f *testing.F) {
	plan, err := BuildPlan(sparse.Poisson2D(4), 2)
	if err != nil {
		f.Fatal(err)
	}
	for _, sh := range plan.Shards {
		m := placeOf(sh)
		e := m.encode()
		f.Add(append([]byte(nil), e.B...), 0.5)
		e.Release()
	}
	for _, tc := range malformedPlacements() {
		e := tc.m.encode()
		f.Add(append([]byte(nil), e.B...), -1.25)
		e.Release()
	}
	f.Fuzz(func(t *testing.T, payload []byte, seed float64) {
		m, err := decodePlace(payload)
		if err != nil {
			return
		}
		ws, err := newWorkerShard(&m)
		if err != nil {
			return
		}
		nl := ws.sh.NLocal()
		x := make([]float64, nl+ws.sh.HaloN)
		for i := range x {
			x[i] = seed * float64(i+1)
		}
		dst := make([]float64, nl)
		ws.sh.MulVec(dst, x)

		op := newShardOp(nil, &workerSolve{}, ws, nil)
		for i := range ws.sends {
			op.gatherFor(&ws.sends[i], x[:nl])
		}
		for _, rv := range ws.recvs {
			copy(op.haloRegion(rv), x[nl:])
		}
		ws.sends, ws.recvs = nil, nil
		op.MulVec(dst, x[:nl])
	})
}

// placeOf is the placement the coordinator ships for sh, its peers
// named by shard index.
func placeOf(sh *Shard) placeMsg {
	m := placeMsg{OpID: "op", Gen: 1, NGlobal: 16, Row0: sh.Row0, Row1: sh.Row1,
		RowPtr: sh.RowPtr, Cols: sh.Cols, Vals: sh.Vals, HaloN: sh.HaloN}
	for _, rv := range sh.Recv {
		m.Recv = append(m.Recv, placeRecv{FromID: string(rune('a' + rv.From)), Off: rv.Off, Count: rv.Count})
	}
	for _, s := range sh.Send {
		m.Send = append(m.Send, placeSend{ToID: string(rune('a' + s.To)), ToAddr: "127.0.0.1:1", Local: s.Local})
	}
	return m
}
