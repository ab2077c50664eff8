package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// TestFrameRoundTrip: a frame survives write/read with its type and
// payload intact, across the small-coalesced and large two-write paths.
func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1024, 1025, 1 << 16} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, MsgHalo, payload); err != nil {
			t.Fatalf("write n=%d: %v", n, err)
		}
		typ, got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("read n=%d: %v", n, err)
		}
		if typ != MsgHalo || !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: frame mutated in transit", n)
		}
		PutBuf(got)
	}
}

// TestFrameTooLarge: a length prefix past the limit is refused before
// any allocation of that size.
func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgPing, make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadFrame(&buf, 1024)
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized frame: got %v, want ErrFrame", err)
	}
}

// TestFrameTruncated: a short read surfaces as an IO error, not a hang
// or a bogus frame.
func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgPing, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	_, _, err := ReadFrame(bytes.NewReader(trunc), 0)
	if err == nil || errors.Is(err, io.EOF) && err != io.ErrUnexpectedEOF {
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("truncated frame: got %v", err)
		}
	}
}

// TestEncDecRoundTrip: every field type survives the encoder/decoder
// pair, including NaN payloads and empty slices.
func TestEncDecRoundTrip(t *testing.T) {
	e := NewEnc(256)
	defer e.Release()
	e.U8(7)
	e.U32(1 << 30)
	e.U64(1 << 40)
	e.F64(math.Pi)
	e.F64(math.NaN())
	e.Str("op-poisson2d")
	e.Str("")
	e.F64s([]float64{1.5, -2.25, 0})
	e.F64s(nil)
	e.Ints([]int{0, 5, 1 << 33})
	e.Int32s([]int32{0, -7, math.MaxInt32})

	d := NewDec(e.B)
	if got := d.U8(); got != 7 {
		t.Fatalf("u8: %d", got)
	}
	if got := d.U32(); got != 1<<30 {
		t.Fatalf("u32: %d", got)
	}
	if got := d.U64(); got != 1<<40 {
		t.Fatalf("u64: %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Fatalf("f64: %g", got)
	}
	if got := d.F64(); !math.IsNaN(got) {
		t.Fatalf("nan: %g", got)
	}
	if got := d.Str(); got != "op-poisson2d" {
		t.Fatalf("str: %q", got)
	}
	if got := d.Str(); got != "" {
		t.Fatalf("empty str: %q", got)
	}
	f := d.F64s(nil)
	if len(f) != 3 || f[0] != 1.5 || f[1] != -2.25 || f[2] != 0 {
		t.Fatalf("f64s: %v", f)
	}
	if f = d.F64s(f); len(f) != 0 {
		t.Fatalf("empty f64s: %v", f)
	}
	ints := d.Ints(nil)
	if len(ints) != 3 || ints[2] != 1<<33 {
		t.Fatalf("ints: %v", ints)
	}
	if i32 := d.Int32s(nil); len(i32) != 3 || i32[1] != -7 || i32[2] != math.MaxInt32 {
		t.Fatalf("int32s: %v", i32)
	}
	if len(d.b) != 0 {
		t.Fatalf("%d bytes left over", len(d.b))
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode err: %v", err)
	}
}

// TestDecTruncationSticks: the first failure poisons the decoder and is
// reported by Err; later reads return zero values instead of panicking.
func TestDecTruncationSticks(t *testing.T) {
	e := NewEnc(16)
	defer e.Release()
	e.U32(99)
	d := NewDec(e.B)
	_ = d.U64() // wants 8 bytes, only 4 present
	if d.Err() == nil {
		t.Fatal("truncated u64 not detected")
	}
	if got := d.U32(); got != 0 {
		t.Fatalf("post-error read: %d, want 0", got)
	}
	if !errors.Is(d.Err(), ErrFrame) {
		t.Fatalf("err not ErrFrame: %v", d.Err())
	}
}

// TestDecHostileLengths: a length prefix claiming more elements than
// the payload could hold is rejected without allocating that length.
func TestDecHostileLengths(t *testing.T) {
	e := NewEnc(16)
	defer e.Release()
	e.U64(1 << 60) // claims 2^60 float64s
	d := NewDec(e.B)
	_ = d.F64s(nil)
	if !errors.Is(d.Err(), ErrFrame) {
		t.Fatalf("hostile length accepted: %v", d.Err())
	}
	d = NewDec(append(binary.LittleEndian.AppendUint64(nil, 3), make([]byte, 11)...)) // 3 int32s want 12 bytes
	if got := d.Int32s(nil); len(got) != 0 || !errors.Is(d.Err(), ErrFrame) {
		t.Fatalf("int32s past the payload: %v, %v", got, d.Err())
	}

	e2 := NewEnc(16)
	defer e2.Release()
	e2.U32(1 << 31) // string longer than payload
	d2 := NewDec(e2.B)
	_ = d2.Str()
	if !errors.Is(d2.Err(), ErrFrame) {
		t.Fatalf("hostile string length accepted: %v", d2.Err())
	}
}
