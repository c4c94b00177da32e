package cdr

import (
	"fmt"
	"math"
	"sync"
)

// Decoder reads CDR-encoded values from a buffer produced by an Encoder of
// any byte order (receiver-makes-right). Alignment is computed relative to
// the start of the buffer.
type Decoder struct {
	buf   []byte
	pos   int
	order ByteOrder
}

// NewDecoder reads from buf, interpreting multi-byte values in the given
// order.
func NewDecoder(buf []byte, order ByteOrder) *Decoder {
	return &Decoder{buf: buf, order: order}
}

// Order returns the decoder's byte order.
func (d *Decoder) Order() ByteOrder { return d.order }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Pos returns the current read offset.
func (d *Decoder) Pos() int { return d.pos }

// Consumed returns the bytes read so far, from the start of the buffer: a view
// of it, aligned as it was read.
func (d *Decoder) Consumed() []byte { return d.buf[:d.pos:d.pos] }

func (d *Decoder) need(n int) error {
	if d.Remaining() < n {
		return fmt.Errorf("%w: need %d bytes at offset %d, have %d", ErrTruncated, n, d.pos, d.Remaining())
	}
	return nil
}

func (d *Decoder) skipPad(n int) error {
	p := align(d.pos, n)
	if err := d.need(p); err != nil {
		return err
	}
	d.pos += p
	return nil
}

// ReadOctet reads one raw byte.
func (d *Decoder) ReadOctet() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

// ReadBool reads a boolean octet, rejecting values other than 0 and 1.
func (d *Decoder) ReadBool() (bool, error) {
	v, err := d.ReadOctet()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: boolean octet 0x%02x", ErrInvalid, v)
	}
}

// ReadChar reads a single-byte character.
func (d *Decoder) ReadChar() (byte, error) { return d.ReadOctet() }

// ReadShort reads a 2-aligned int16.
func (d *Decoder) ReadShort() (int16, error) {
	v, err := d.ReadUShort()
	return int16(v), err
}

// ReadUShort reads a 2-aligned uint16.
func (d *Decoder) ReadUShort() (uint16, error) {
	if err := d.skipPad(2); err != nil {
		return 0, err
	}
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := d.order.order().Uint16(d.buf[d.pos:])
	d.pos += 2
	return v, nil
}

// ReadLong reads a 4-aligned int32.
func (d *Decoder) ReadLong() (int32, error) {
	v, err := d.ReadULong()
	return int32(v), err
}

// ReadULong reads a 4-aligned uint32.
func (d *Decoder) ReadULong() (uint32, error) {
	if err := d.skipPad(4); err != nil {
		return 0, err
	}
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := d.order.order().Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

// ReadLongLong reads an 8-aligned int64.
func (d *Decoder) ReadLongLong() (int64, error) {
	v, err := d.ReadULongLong()
	return int64(v), err
}

// ReadULongLong reads an 8-aligned uint64.
func (d *Decoder) ReadULongLong() (uint64, error) {
	if err := d.skipPad(8); err != nil {
		return 0, err
	}
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := d.order.order().Uint64(d.buf[d.pos:])
	d.pos += 8
	return v, nil
}

// ReadFloat reads a 4-aligned float32.
func (d *Decoder) ReadFloat() (float32, error) {
	v, err := d.ReadULong()
	return math.Float32frombits(v), err
}

// ReadDouble reads an 8-aligned float64.
func (d *Decoder) ReadDouble() (float64, error) {
	v, err := d.ReadULongLong()
	return math.Float64frombits(v), err
}

// ReadString reads a CDR string (length prefix includes the NUL).
func (d *Decoder) ReadString() (string, error) {
	s, err := d.readStringBytes()
	if err != nil {
		return "", err
	}
	return string(s), nil
}

// readStringBytes reads a CDR string and returns a view of its bytes
// (excluding the NUL), valid only until the decoder's buffer is released.
func (d *Decoder) readStringBytes() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxLen {
		return nil, fmt.Errorf("%w: string length %d", ErrInvalid, n)
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	s := d.buf[d.pos : d.pos+int(n)-1]
	if d.buf[d.pos+int(n)-1] != 0 {
		return nil, fmt.Errorf("%w: string missing NUL terminator", ErrInvalid)
	}
	d.pos += int(n)
	return s, nil
}

// internCap bounds the process-wide interned-string table so a peer cannot
// grow it without limit by inventing fresh identifiers; past the cap, new
// values simply allocate per decode like ReadString.
const internCap = 1024

var (
	internMu  sync.RWMutex
	internTab = make(map[string]string)
)

func internBytes(b []byte) string {
	internMu.RLock()
	s, ok := internTab[string(b)] // map lookup by converted key does not allocate
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(internTab) < internCap {
		internTab[s] = s
	}
	internMu.Unlock()
	return s
}

// ReadStringInterned is ReadString for protocol identifiers — operation
// names, element-type names, principals — that recur on every request. The
// value is served from a shared intern table, so steady-state decoding of a
// repeated identifier performs no allocation.
func (d *Decoder) ReadStringInterned() (string, error) {
	s, err := d.readStringBytes()
	if err != nil {
		return "", err
	}
	return internBytes(s), nil
}

// ReadOctets reads a sequence<octet>, returning a view into the buffer.
func (d *Decoder) ReadOctets() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, fmt.Errorf("%w: octet sequence length %d", ErrInvalid, n)
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	b := d.buf[d.pos : d.pos+int(n) : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// ReadRaw reads exactly n bytes with no count and no alignment.
func (d *Decoder) ReadRaw(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative raw read %d", ErrInvalid, n)
	}
	if err := d.need(n); err != nil {
		return nil, err
	}
	b := d.buf[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b, nil
}

// ReadDoubles reads a sequence<double> written by WriteDoubles.
func (d *Decoder) ReadDoubles() ([]float64, error) {
	n, err := d.doublesHeader()
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	d.readDoublesBody(out)
	return out, nil
}

// ReadDoublesInto reads a sequence<double> directly into dst, returning the
// element count. It fails without consuming elements when the stream's count
// exceeds len(dst), so callers can hand it exactly the storage the transfer
// plan promised. This is the zero-allocation decode path for distributed
// sequence chunks.
func (d *Decoder) ReadDoublesInto(dst []float64) (int, error) {
	n, err := d.doublesHeader()
	if err != nil {
		return 0, err
	}
	if n > len(dst) {
		return 0, fmt.Errorf("%w: double sequence length %d exceeds destination %d", ErrInvalid, n, len(dst))
	}
	d.readDoublesBody(dst[:n])
	return n, nil
}

// ReadDoublesUsing is ReadDoubles with a caller-recycled destination: the
// decoded sequence lands in dst's backing array when it has the capacity,
// and a fresh slice is allocated only on growth. Callers that feed the
// previous result back in decode repeated sequences without churning the
// heap (ReadDoubles allocates len(result) every call, which at megabyte
// sequence sizes distorts the memory profile of everything around it).
func (d *Decoder) ReadDoublesUsing(dst []float64) ([]float64, error) {
	n, err := d.doublesHeader()
	if err != nil {
		return nil, err
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	d.readDoublesBody(dst)
	return dst, nil
}

// doublesHeader reads the count prefix of a sequence<double>, skips the
// 8-alignment padding, and verifies the packed elements are present.
func (d *Decoder) doublesHeader() (int, error) {
	n, err := d.ReadULong()
	if err != nil {
		return 0, err
	}
	if n > maxLen/8 {
		return 0, fmt.Errorf("%w: double sequence length %d", ErrInvalid, n)
	}
	if err := d.skipPad(8); err != nil {
		return 0, err
	}
	if err := d.need(8 * int(n)); err != nil {
		return 0, err
	}
	return int(n), nil
}

// readDoublesBody copies len(dst) packed elements into dst; availability was
// checked by doublesHeader.
func (d *Decoder) readDoublesBody(dst []float64) {
	if d.order == hostOrder {
		copy(HostBytes(dst), d.buf[d.pos:])
	} else {
		ord := d.order.order()
		for i := range dst {
			dst[i] = math.Float64frombits(ord.Uint64(d.buf[d.pos+8*i:]))
		}
	}
	d.pos += 8 * len(dst)
}

// ReadLongs reads a sequence<long> written by WriteLongs.
func (d *Decoder) ReadLongs() ([]int32, error) {
	n, err := d.longsHeader()
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	d.readLongsBody(out)
	return out, nil
}

// ReadLongsInto is ReadDoublesInto for sequence<long>.
func (d *Decoder) ReadLongsInto(dst []int32) (int, error) {
	n, err := d.longsHeader()
	if err != nil {
		return 0, err
	}
	if n > len(dst) {
		return 0, fmt.Errorf("%w: long sequence length %d exceeds destination %d", ErrInvalid, n, len(dst))
	}
	d.readLongsBody(dst[:n])
	return n, nil
}

func (d *Decoder) longsHeader() (int, error) {
	n, err := d.ReadULong()
	if err != nil {
		return 0, err
	}
	if n > maxLen/4 {
		return 0, fmt.Errorf("%w: long sequence length %d", ErrInvalid, n)
	}
	if err := d.need(4 * int(n)); err != nil {
		return 0, err
	}
	return int(n), nil
}

func (d *Decoder) readLongsBody(dst []int32) {
	if d.order == hostOrder {
		copy(HostBytes(dst), d.buf[d.pos:])
	} else {
		ord := d.order.order()
		for i := range dst {
			dst[i] = int32(ord.Uint32(d.buf[d.pos+4*i:]))
		}
	}
	d.pos += 4 * len(dst)
}

// ReadEncapsulation opens a nested encapsulation and returns a decoder over
// its body whose byte order is the one recorded in the encapsulation and
// whose alignment origin is the encapsulation start.
func (d *Decoder) ReadEncapsulation() (*Decoder, error) {
	body, err := d.ReadOctets()
	if err != nil {
		return nil, err
	}
	if len(body) < 1 {
		return nil, fmt.Errorf("%w: empty encapsulation", ErrInvalid)
	}
	flag := body[0]
	if flag > 1 {
		return nil, fmt.Errorf("%w: encapsulation byte-order flag 0x%02x", ErrInvalid, flag)
	}
	inner := NewDecoder(body, ByteOrder(flag))
	inner.pos = 1 // alignment origin includes the flag octet, as written
	return inner, nil
}

// ReadEnum reads an enum discriminant.
func (d *Decoder) ReadEnum() (uint32, error) { return d.ReadULong() }
