package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzWireFrame throws arbitrary byte streams at ReadFrame: hostile
// length prefixes, truncated headers, truncated payloads. The decoder
// must never panic, never allocate past maxPayload, and classify every
// protocol failure under ErrFrame (I/O truncation surfaces as the
// reader's error instead).
func FuzzWireFrame(f *testing.F) {
	// A well-formed small frame.
	var ok bytes.Buffer
	if err := WriteFrame(&ok, MsgPing, []byte{1, 2, 3}); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())
	// Truncated header.
	f.Add([]byte{MsgHello, 0xff})
	// Length prefix far beyond the payload actually present.
	huge := make([]byte, headerLen)
	huge[0] = MsgHalo
	binary.LittleEndian.PutUint32(huge[1:], math.MaxUint32)
	f.Add(huge)
	// Length prefix just over the fuzz limit below.
	over := make([]byte, headerLen)
	over[0] = MsgPartials
	binary.LittleEndian.PutUint32(over[1:], 1<<21)
	f.Add(over)

	const limit = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, payload, err := ReadFrame(r, limit)
			if err != nil {
				if !errors.Is(err, ErrFrame) && !errors.Is(err, io.EOF) &&
					!errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("unclassified error %v", err)
				}
				return
			}
			if len(payload) > limit {
				t.Fatalf("payload %d exceeds limit %d", len(payload), limit)
			}
			// Round-trip: re-framing the decoded frame reproduces the
			// consumed bytes exactly.
			var w bytes.Buffer
			if err := WriteFrame(&w, typ, payload); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			consumed := data[:len(data)-r.Len()]
			tail := consumed[len(consumed)-w.Len():]
			if !bytes.Equal(w.Bytes(), tail) {
				t.Fatalf("round-trip mismatch:\n got %x\nwant %x", w.Bytes(), tail)
			}
			PutBuf(payload)
		}
	})
}

// FuzzDecFields drives the field decoder over arbitrary payloads with a
// script of field reads derived from the input: the sticky-error
// contract means no read sequence may panic or hand back data past the
// payload end.
func FuzzDecFields(f *testing.F) {
	e := NewEnc(64)
	e.U8(7)
	e.U32(1234)
	e.Str("worker-3")
	e.F64s([]float64{1, 2.5, math.Inf(1)})
	e.Ints([]int{0, -1, 1 << 40})
	e.Int32s([]int32{0, -1, math.MaxInt32})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, e.B)
	e.Release()

	f.Fuzz(func(t *testing.T, script, payload []byte) {
		d := NewDec(payload)
		var f64buf []float64
		var intbuf []int
		var int32buf []int32
		for _, op := range script {
			switch op % 8 {
			case 0:
				d.U8()
			case 1:
				d.U32()
			case 2:
				d.U64()
			case 3:
				d.F64()
			case 4:
				d.Str()
			case 5:
				f64buf = d.F64s(f64buf)
			case 6:
				intbuf = d.Ints(intbuf)
			case 7:
				int32buf = d.Int32s(int32buf)
			}
		}
		if err := d.Err(); err != nil && !errors.Is(err, ErrFrame) {
			t.Fatalf("decode error not under ErrFrame: %v", err)
		}
	})
}
