// Package wire is the binary frame protocol of the cluster tier: the
// second transport in the repository, built for the iteration hot path
// the HTTP JSON layer is too slow for. Every message is one frame —
//
//	byte  0     frame type
//	bytes 1..4  payload length, uint32 little-endian
//	bytes 5..   payload
//
// — and payloads are packed little-endian scalars and slices (float64s
// as their 8-byte IEEE 754 bits, a placement's column indices as 4-byte
// int32s, other integers as 8 bytes), so a halo exchange or an allreduce
// contribution costs exactly its data plus five bytes of framing. No
// JSON, no reflection, no per-frame allocation in steady state: frame
// payloads and encode buffers come from a shared pool and are returned
// after use.
//
// The protocol is deliberately dumb. Framing, byte order, and bounds
// checks live here; message semantics (who sends what when) live in the
// cluster package.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Frame types. The vocabulary is fixed; unknown types are a protocol
// error surfaced to the connection owner.
const (
	// Control plane: coordinator <-> worker.
	MsgHello    byte = 0x01 // coordinator → worker: identity + protocol version
	MsgHelloAck byte = 0x02 // worker → coordinator: accepts, echoes version
	MsgPing     byte = 0x03 // heartbeat probe
	MsgPong     byte = 0x04 // heartbeat reply
	MsgPlace    byte = 0x05 // coordinator → worker: install one operator shard
	MsgPlaceAck byte = 0x06 // worker → coordinator: shard installed
	MsgDrop     byte = 0x07 // coordinator → worker: forget an operator
	MsgSolve    byte = 0x08 // coordinator → worker: start a distributed solve
	MsgCombined byte = 0x09 // coordinator → worker: allreduce result
	MsgAbort    byte = 0x0a // coordinator → worker: cancel the named solve

	// Data plane: worker → coordinator.
	MsgPartials byte = 0x10 // local inner-product contributions
	MsgDone     byte = 0x11 // solve finished: shard of x + stats + timings
	MsgErr      byte = 0x12 // solve failed on this worker

	// Peer plane: worker → worker.
	MsgPeerHello byte = 0x20 // identifies the sending worker on a halo link
	MsgHalo      byte = 0x21 // one batched halo message for one iteration
)

// Version is the protocol version carried in Hello/HelloAck; a mismatch
// refuses the connection rather than misinterpreting frames. Version 2
// ships a placement's column indices as int32s (Int32s).
const Version = 2

// DefaultMaxPayload bounds incoming frame payloads (shards of a 4M-row
// operator fit comfortably; a corrupt length prefix does not take the
// process down).
const DefaultMaxPayload = 1 << 30

// ErrFrame wraps every framing/decoding failure so transport owners can
// classify protocol corruption with errors.Is.
var ErrFrame = errors.New("wire: protocol error")

const headerLen = 5

// buffers pools payload/scratch byte slices across frames.
var buffers = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuf returns a pooled byte slice with length 0 and at least the
// given capacity.
func GetBuf(capacity int) []byte {
	bp := buffers.Get().(*[]byte)
	b := *bp
	if cap(b) < capacity {
		b = make([]byte, 0, capacity)
	}
	return b[:0]
}

// PutBuf returns a buffer obtained from GetBuf (or a frame payload from
// ReadFrame) to the pool.
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	buffers.Put(&b)
}

// WriteFrame writes one frame. The payload is not retained.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > math.MaxUint32 {
		return fmt.Errorf("%w: payload %d bytes exceeds frame limit", ErrFrame, len(payload))
	}
	var hdr [headerLen]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	// One writev-shaped write when possible: small frames are copied
	// into the header buffer's tail via net.Buffers semantics is not
	// worth the dependency; two writes on a buffered/TCP conn is fine,
	// but coalesce small payloads to avoid tinygram pairs.
	if len(payload) <= 1024 {
		buf := GetBuf(headerLen + len(payload))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
		_, err := w.Write(buf)
		PutBuf(buf)
		return err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, returning its type and payload. The
// payload buffer comes from the shared pool; hand it back with PutBuf
// when decoded. maxPayload <= 0 applies DefaultMaxPayload.
func ReadFrame(r io.Reader, maxPayload int) (typ byte, payload []byte, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxPayload {
		return 0, nil, fmt.Errorf("%w: frame payload %d exceeds limit %d", ErrFrame, n, maxPayload)
	}
	buf := GetBuf(n)[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		PutBuf(buf)
		return 0, nil, err
	}
	return hdr[0], buf, nil
}

// Enc appends little-endian fields to a (usually pooled) buffer.
// Methods return the updated slice, append-style.
type Enc struct{ B []byte }

// NewEnc wraps a pooled buffer sized for a payload of about `hint`
// bytes.
func NewEnc(hint int) *Enc { return &Enc{B: GetBuf(hint)} }

// Release returns the underlying buffer to the pool.
func (e *Enc) Release() { PutBuf(e.B); e.B = nil }

// U8 appends one byte.
func (e *Enc) U8(v byte) { e.B = append(e.B, v) }

// U32 appends a uint32.
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends a uint64.
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// F64 appends one float64 as its IEEE bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed UTF-8 string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}

// F64s appends a length-prefixed float64 slice.
func (e *Enc) F64s(v []float64) {
	e.U64(uint64(len(v)))
	off := len(e.B)
	e.B = append(e.B, make([]byte, 8*len(v))...)
	for i, x := range v {
		binary.LittleEndian.PutUint64(e.B[off+8*i:], math.Float64bits(x))
	}
}

// Ints appends a length-prefixed []int as uint64s.
func (e *Enc) Ints(v []int) {
	e.U64(uint64(len(v)))
	off := len(e.B)
	e.B = append(e.B, make([]byte, 8*len(v))...)
	for i, x := range v {
		binary.LittleEndian.PutUint64(e.B[off+8*i:], uint64(x))
	}
}

// Int32s appends a length-prefixed []int32, 4 bytes per element.
func (e *Enc) Int32s(v []int32) {
	e.U64(uint64(len(v)))
	off := len(e.B)
	e.B = append(e.B, make([]byte, 4*len(v))...)
	for i, x := range v {
		binary.LittleEndian.PutUint32(e.B[off+4*i:], uint32(x))
	}
}

// Dec consumes little-endian fields from a payload. The first decode
// error sticks: every subsequent call returns the zero value, and Err
// reports the failure once at the end — callers check one error per
// message instead of one per field.
type Dec struct {
	b   []byte
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decoding failure, or nil.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail(want string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated payload reading %s", ErrFrame, want)
	}
}

func (d *Dec) take(n int, what string) []byte {
	if d.err != nil || len(d.b) < n {
		d.fail(what)
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// U8 reads one byte.
func (d *Dec) U8() byte {
	v := d.take(1, "u8")
	if v == nil {
		return 0
	}
	return v[0]
}

// U32 reads a uint32.
func (d *Dec) U32() uint32 {
	v := d.take(4, "u32")
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

// U64 reads a uint64.
func (d *Dec) U64() uint64 {
	v := d.take(8, "u64")
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// F64 reads one float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > len(d.b) {
		d.fail("string")
		return ""
	}
	return string(d.take(n, "string"))
}

// StrBytes reads a length-prefixed string as a view into the payload —
// no copy, no allocation. The bytes alias the frame buffer, so they are
// valid only until the payload is released (PutBuf) or reused; callers
// that outlive the frame must copy.
func (d *Dec) StrBytes() []byte {
	n := int(d.U32())
	if d.err != nil || n < 0 || n > len(d.b) {
		d.fail("string")
		return nil
	}
	return d.take(n, "string")
}

// lenPrefix reads a u64 element count and validates it against the
// remaining payload at elemSize bytes per element.
func (d *Dec) lenPrefix(elemSize int, what string) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)/elemSize) {
		d.fail(what)
		return 0
	}
	return int(n)
}

// F64s reads a length-prefixed float64 slice into dst (grown as
// needed), returning the filled slice.
func (d *Dec) F64s(dst []float64) []float64 {
	n := d.lenPrefix(8, "[]float64")
	if d.err != nil {
		return dst[:0]
	}
	raw := d.take(8*n, "[]float64")
	if raw == nil {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return dst
}

// Ints reads a length-prefixed []int.
func (d *Dec) Ints(dst []int) []int {
	n := d.lenPrefix(8, "[]int")
	if d.err != nil {
		return dst[:0]
	}
	raw := d.take(8*n, "[]int")
	if raw == nil {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = int(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return dst
}

// Int32s reads a length-prefixed []int32 into dst (grown as needed),
// returning the filled slice.
func (d *Dec) Int32s(dst []int32) []int32 {
	n := d.lenPrefix(4, "[]int32")
	if d.err != nil {
		return dst[:0]
	}
	raw := d.take(4*n, "[]int32")
	if raw == nil {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return dst
}
