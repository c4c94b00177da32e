package cdr

import (
	"fmt"
	"math"
)

// Encoder appends CDR-encoded values to a buffer. NewEncoder picks the byte
// order (the zero value encodes big-endian). Alignment is computed relative to the
// start of the buffer (or the mark set by MarkOrigin), matching the
// alignment origin of a CDR message or encapsulation body.
type Encoder struct {
	buf    []byte
	order  ByteOrder
	origin int

	// arr seeds buf in NewEncoder so small streams (directives, scalar
	// argument payloads, headers) encode without a separate buffer
	// allocation; append migrates to the heap only past this capacity. 72
	// bytes fill the 112-byte size class the struct occupies anyway, and
	// hold the invocation header of a call with one distributed argument
	// (68 bytes with a four-letter operation name).
	arr [72]byte
}

// NewEncoder returns an encoder in the given byte order.
func NewEncoder(order ByteOrder) *Encoder {
	e := &Encoder{order: order}
	e.buf = e.arr[:0:len(e.arr)]
	return e
}

// Order returns the encoder's byte order.
func (e *Encoder) Order() ByteOrder {
	return e.order
}

// Bytes returns the encoded stream. The slice aliases the encoder's
// internal buffer; it is valid until the next Write call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the encoded data, retaining the buffer for reuse.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.origin = 0
}

// Cap returns the capacity of the underlying buffer.
func (e *Encoder) Cap() int { return cap(e.buf) }

// MarkOrigin makes the current position the alignment origin for subsequent
// writes. Framing layers use it to encode a fixed-size header and an aligned
// CDR body into one contiguous buffer: append the header bytes raw, mark,
// then encode the body as if it started a fresh stream.
func (e *Encoder) MarkOrigin() { e.origin = len(e.buf) }

// pad writes zero bytes until the position is n-aligned.
func (e *Encoder) pad(n int) {
	for i := align(len(e.buf)-e.origin, n); i > 0; i-- {
		e.buf = append(e.buf, 0)
	}
}

// WriteOctet appends a raw byte.
func (e *Encoder) WriteOctet(v byte) { e.buf = append(e.buf, v) }

// WriteBool appends a boolean as one octet (0 or 1).
func (e *Encoder) WriteBool(v bool) {
	if v {
		e.WriteOctet(1)
	} else {
		e.WriteOctet(0)
	}
}

// WriteChar appends a single-byte character.
func (e *Encoder) WriteChar(v byte) { e.WriteOctet(v) }

// WriteShort appends an int16 aligned to 2.
func (e *Encoder) WriteShort(v int16) { e.WriteUShort(uint16(v)) }

// WriteUShort appends a uint16 aligned to 2.
func (e *Encoder) WriteUShort(v uint16) {
	e.pad(2)
	e.buf = e.order.order().AppendUint16(e.buf, v)
}

// WriteLong appends an int32 aligned to 4. (CORBA "long" is 32 bits.)
func (e *Encoder) WriteLong(v int32) { e.WriteULong(uint32(v)) }

// WriteULong appends a uint32 aligned to 4.
func (e *Encoder) WriteULong(v uint32) {
	e.pad(4)
	e.buf = e.order.order().AppendUint32(e.buf, v)
}

// WriteLongLong appends an int64 aligned to 8.
func (e *Encoder) WriteLongLong(v int64) { e.WriteULongLong(uint64(v)) }

// WriteULongLong appends a uint64 aligned to 8.
func (e *Encoder) WriteULongLong(v uint64) {
	e.pad(8)
	e.buf = e.order.order().AppendUint64(e.buf, v)
}

// WriteFloat appends a float32 aligned to 4.
func (e *Encoder) WriteFloat(v float32) { e.WriteULong(math.Float32bits(v)) }

// WriteDouble appends a float64 aligned to 8.
func (e *Encoder) WriteDouble(v float64) { e.WriteULongLong(math.Float64bits(v)) }

// WriteString appends a string as uint32 length (including the terminating
// NUL) followed by the bytes and a NUL, per CDR.
func (e *Encoder) WriteString(s string) {
	e.WriteULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// WriteOctets appends a sequence<octet>: uint32 count then raw bytes.
func (e *Encoder) WriteOctets(b []byte) {
	e.WriteULong(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// WriteRaw appends bytes with no count and no alignment; used for payloads
// whose framing is established elsewhere.
func (e *Encoder) WriteRaw(b []byte) { e.buf = append(e.buf, b...) }

// OctetsMark is an open in-place sequence<octet>; see BeginOctets.
type OctetsMark struct{ count, origin int }

// BeginOctets opens a sequence<octet> whose contents are encoded in place as
// their own CDR stream: it reserves the count, makes the next byte the
// alignment origin and returns the mark EndOctets closes it with. It is
// WriteOctets for a body that would otherwise be built in a second encoder
// and copied in.
func (e *Encoder) BeginOctets() OctetsMark {
	e.WriteULong(0)
	m := OctetsMark{count: len(e.buf) - 4, origin: e.origin}
	e.origin = len(e.buf)
	return m
}

// EndOctets patches the count of the sequence opened by m and restores the
// enclosing stream's alignment origin.
func (e *Encoder) EndOctets(m OctetsMark) {
	e.order.order().PutUint32(e.buf[m.count:], uint32(len(e.buf)-m.count-4))
	e.origin = m.origin
}

// Extend appends n bytes with no alignment and returns them for the caller to
// fill in place. Their contents are unspecified (a reused buffer's old bytes):
// the caller must overwrite every one.
func (e *Encoder) Extend(n int) []byte {
	e.Grow(n)
	off := len(e.buf)
	e.buf = e.buf[:off+n]
	return e.buf[off:]
}

// Truncate drops everything after the first n bytes: a renderer that reserved
// room with Extend and used less of it gives the rest back.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// Adopt makes b, a complete stream encoded in e's byte order, the encoder's
// contents without copying it. The encoder owns b from here on; appending to
// it continues in b's spare capacity, so an empty b is a buffer to render into.
func (e *Encoder) Adopt(b []byte) {
	e.buf = b
	e.origin = 0
}

// WriteDoubles appends a sequence<double>: uint32 count, 8-alignment, then
// the packed elements. This is the hot path for distributed sequence
// chunks, so it avoids per-element calls.
func (e *Encoder) WriteDoubles(v []float64) {
	e.WriteULong(uint32(len(v)))
	e.pad(8)
	if e.order == hostOrder {
		// Stream order matches memory order: the packed elements are the
		// backing array's bytes, so one memcpy replaces the element loop.
		e.buf = append(e.buf, HostBytes(v)...)
		return
	}
	ord := e.order.order()
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, 8*len(v))...)
	for i, f := range v {
		ord.PutUint64(e.buf[off+8*i:], math.Float64bits(f))
	}
}

// WriteLongs appends a sequence<long>.
func (e *Encoder) WriteLongs(v []int32) {
	e.WriteULong(uint32(len(v)))
	if e.order == hostOrder {
		e.buf = append(e.buf, HostBytes(v)...)
		return
	}
	ord := e.order.order()
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, 4*len(v))...)
	for i, x := range v {
		ord.PutUint32(e.buf[off+4*i:], uint32(x))
	}
}

// WriteEncapsulation appends the body produced by fn as a CDR
// encapsulation: an octet sequence whose first octet is the byte-order flag
// and whose alignment origin is its own start.
func (e *Encoder) WriteEncapsulation(fn func(*Encoder)) {
	inner := NewEncoder(e.order)
	inner.WriteOctet(byte(e.order))
	fn(inner)
	e.WriteOctets(inner.Bytes())
}

// WriteEnum appends an enum discriminant as uint32.
func (e *Encoder) WriteEnum(v uint32) { e.WriteULong(v) }

// Grow pre-allocates capacity for n additional bytes. Growth is amortized:
// the buffer at least doubles, so a sequence of small Grow calls costs O(total)
// copying rather than O(total²).
func (e *Encoder) Grow(n int) {
	if cap(e.buf)-len(e.buf) >= n {
		return
	}
	c := 2 * cap(e.buf)
	if c < len(e.buf)+n {
		c = len(e.buf) + n
	}
	nb := make([]byte, len(e.buf), c)
	copy(nb, e.buf)
	e.buf = nb
}

// String summarizes the encoder state for debugging.
func (e *Encoder) String() string {
	return fmt.Sprintf("cdr.Encoder{%s, %d bytes}", e.order, len(e.buf))
}
