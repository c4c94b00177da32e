package dseq

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cdr"
	"repro/internal/zcodec"
)

// Codec marshals slices of a sequence's element type. A codec writes a
// count-prefixed CDR encoding (so truncation is detectable) and decodes it
// back. Generated code supplies codecs for user-defined IDL types; the
// predefined codecs below cover the basic types.
type Codec[T any] struct {
	// Name identifies the element type in diagnostics ("double", "long"...).
	Name string
	// EncodeSlice appends v to the stream.
	EncodeSlice func(e *cdr.Encoder, v []T)
	// DecodeSlice reads a slice written by EncodeSlice.
	DecodeSlice func(d *cdr.Decoder) ([]T, error)
	// DecodeInto, when non-nil, reads a slice written by EncodeSlice
	// directly into dst, returning the element count; it must fail without
	// storing anything when the stream's count exceeds len(dst). Codecs
	// whose destination is preallocated sequence storage (the transfer hot
	// path) provide it to skip the intermediate slice DecodeSlice allocates;
	// when nil, callers fall back to DecodeSlice plus a copy.
	DecodeInto func(d *cdr.Decoder, dst []T) (int, error)

	// HostBytes, when non-nil, marks a fixed-width element type: it views v
	// as its memory bytes, and EncodeSlice in host byte order writes exactly
	// the count followed by those bytes (ElemWireSize per element). A rank's
	// share of such a chunk is a byte sub-range of it, so gathers and scatters
	// place shares by copy instead of decoding and re-encoding them.
	HostBytes func(v []T) []byte

	// Block-compression hooks, all non-nil or all nil. Numeric element
	// types plug a zcodec block codec in here; MarshalChunkZ uses them to
	// build compressed chunk envelopes when the sender's mask has the
	// codec, and the Unmarshal* functions to auto-detect and decode them.
	// Types without a block codec (strings, structs...) leave these nil
	// and always travel raw.
	CompressID     zcodec.ID
	ElemWireSize   int // raw wire bytes per element, the compression break-even bar
	CompressBound  func(n int) int
	CompressAppend func(dst []byte, v []T) []byte
	DecompressInto func(dst []T, src []byte) error
}

// Float64 is the codec for IDL double, the paper's benchmark element type.
// It uses the block encoders, the marshalling hot path.
var Float64 = Codec[float64]{
	Name:           "double",
	EncodeSlice:    func(e *cdr.Encoder, v []float64) { e.WriteDoubles(v) },
	DecodeSlice:    func(d *cdr.Decoder) ([]float64, error) { return d.ReadDoubles() },
	DecodeInto:     func(d *cdr.Decoder, dst []float64) (int, error) { return d.ReadDoublesInto(dst) },
	HostBytes:      cdr.HostBytes[float64],
	CompressID:     zcodec.XOR,
	ElemWireSize:   8,
	CompressBound:  zcodec.DoublesBound,
	CompressAppend: zcodec.AppendDoubles,
	DecompressInto: zcodec.DecodeDoublesInto,
}

// Int32 is the codec for IDL long.
var Int32 = Codec[int32]{
	Name:           "long",
	EncodeSlice:    func(e *cdr.Encoder, v []int32) { e.WriteLongs(v) },
	DecodeSlice:    func(d *cdr.Decoder) ([]int32, error) { return d.ReadLongs() },
	DecodeInto:     func(d *cdr.Decoder, dst []int32) (int, error) { return d.ReadLongsInto(dst) },
	HostBytes:      cdr.HostBytes[int32],
	CompressID:     zcodec.Delta,
	ElemWireSize:   4,
	CompressBound:  zcodec.Int32sBound,
	CompressAppend: zcodec.AppendInt32s,
	DecompressInto: zcodec.DecodeInt32sInto,
}

// Int64 is the codec for IDL long long.
var Int64 = func() Codec[int64] {
	c := StructCodec("long long", (*cdr.Encoder).WriteLongLong, (*cdr.Decoder).ReadLongLong)
	c.HostBytes, c.ElemWireSize = cdr.HostBytes[int64], 8
	c.CompressID, c.CompressBound, c.CompressAppend = zcodec.Delta, zcodec.Int64sBound, zcodec.AppendInt64s
	c.DecompressInto = zcodec.DecodeInt64sInto
	return c
}()

// Float32 is the codec for IDL float.
var Float32 = func() Codec[float32] {
	c := StructCodec("float", (*cdr.Encoder).WriteFloat, (*cdr.Decoder).ReadFloat)
	c.DecodeInto = func(d *cdr.Decoder, dst []float32) (int, error) {
		n, err := d.ReadULong()
		if err != nil {
			return 0, err
		}
		if int(n) > len(dst) {
			return 0, fmt.Errorf("dseq: float chunk of %d exceeds destination %d", n, len(dst))
		}
		for i := 0; i < int(n); i++ {
			if dst[i], err = d.ReadFloat(); err != nil {
				return 0, err
			}
		}
		return int(n), nil
	}
	return c
}()

// Octet is the codec for IDL octet. DecodeSlice must copy (ReadOctets
// returns a view into the decode buffer, which the transport may reclaim);
// DecodeInto copies once, straight into the caller's storage.
var Octet = Codec[byte]{
	Name:        "octet",
	EncodeSlice: func(e *cdr.Encoder, v []byte) { e.WriteOctets(v) },
	DecodeSlice: func(d *cdr.Decoder) ([]byte, error) {
		b, err := d.ReadOctets()
		if err != nil {
			return nil, err
		}
		out := make([]byte, len(b))
		copy(out, b)
		return out, nil
	},
	DecodeInto: func(d *cdr.Decoder, dst []byte) (int, error) {
		b, err := d.ReadOctets()
		if err != nil {
			return 0, err
		}
		if len(b) > len(dst) {
			return 0, fmt.Errorf("dseq: octet chunk of %d exceeds destination %d", len(b), len(dst))
		}
		return copy(dst, b), nil
	},
}

// Bool is the codec for IDL boolean.
var Bool = StructCodec("boolean", (*cdr.Encoder).WriteBool, (*cdr.Decoder).ReadBool)

// String is the codec for IDL string elements (a dsequence<string>).
var String = StructCodec("string", (*cdr.Encoder).WriteString, (*cdr.Decoder).ReadString)

// StructCodec builds a codec for a user-defined element type from
// per-element marshal functions, the shape generated skeleton code uses.
func StructCodec[T any](name string, enc func(*cdr.Encoder, T), dec func(*cdr.Decoder) (T, error)) Codec[T] {
	return Codec[T]{
		Name: name,
		EncodeSlice: func(e *cdr.Encoder, v []T) {
			e.WriteULong(uint32(len(v)))
			for _, x := range v {
				enc(e, x)
			}
		},
		DecodeSlice: func(d *cdr.Decoder) ([]T, error) {
			n, err := d.ReadULong()
			if err != nil {
				return nil, err
			}
			out := make([]T, 0, min(int(n), 1<<20))
			for i := uint32(0); i < n; i++ {
				x, err := dec(d)
				if err != nil {
					return nil, err
				}
				out = append(out, x)
			}
			return out, nil
		},
	}
}

// MarshalChunk renders elements as a standalone self-describing payload
// (leading byte-order octet, like an argument payload), the format carried
// by wire.Data messages and by centralized request bodies.
func MarshalChunk[T any](c Codec[T], v []T) []byte {
	e := cdr.NewEncoder(cdr.NativeOrder)
	marshalChunkInto(c, e, v)
	return e.Bytes()
}

// marshalChunkInto appends the chunk encoding of v to e, whose alignment
// origin must be the current position (a fresh encoder, or BeginOctets).
func marshalChunkInto[T any](c Codec[T], e *cdr.Encoder, v []T) {
	h := marshalNS.Load()
	defer h.Done(h.Start())
	e.WriteOctet(byte(cdr.NativeOrder))
	c.EncodeSlice(e, v)
}

// packedElemsOff is where the elements of a fixed-width chunk start: the
// order octet, padding to the count, the ULong count — and offset 8 is
// aligned for every fixed-width element.
const packedElemsOff = 8

// packed reports whether c's chunks in this process's encoding order are a
// packedElemsOff-byte header followed by the elements' memory bytes.
func (c Codec[T]) packed() bool {
	return c.HostBytes != nil && cdr.NativeOrder == cdr.HostOrder()
}

// beginPacked appends the header of a packed chunk of n elements to e (at an
// alignment origin), growing e once to the chunk's exact size, and returns
// the element region for the caller to fill.
func (c Codec[T]) beginPacked(e *cdr.Encoder, n int) []byte {
	e.Grow(packedElemsOff + n*c.ElemWireSize)
	e.WriteOctet(byte(cdr.NativeOrder))
	e.WriteULong(uint32(n))
	return e.Extend(n * c.ElemWireSize)
}

// packedElems returns the element bytes of a raw chunk holding exactly n
// elements when c is packed and the chunk is in host order, and nil when the
// payload has to take the decode path: another codec, order or envelope, or
// malformed, which decoding then reports.
func (c Codec[T]) packedElems(payload []byte, n int) []byte {
	if !c.packed() || len(payload) != packedElemsOff+n*c.ElemWireSize || payload[0] != byte(cdr.NativeOrder) {
		return nil
	}
	if int(binary.NativeEndian.Uint32(payload[4:])) != n {
		return nil
	}
	return payload[packedElemsOff:]
}

// openChunk validates a chunk payload's byte-order flag and positions a
// decoder past it.
func openChunk(name string, payload []byte) (*cdr.Decoder, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("dseq: empty %s chunk", name)
	}
	if payload[0] > 1 {
		return nil, fmt.Errorf("dseq: bad chunk order flag %d", payload[0])
	}
	d := cdr.NewDecoder(payload, cdr.ByteOrder(payload[0]))
	if _, err := d.ReadOctet(); err != nil {
		return nil, err
	}
	return d, nil
}

// UnmarshalChunk parses a payload produced by MarshalChunk or
// MarshalChunkZ; compressed envelopes are detected from the marker
// octet, so receivers need no negotiation state.
func UnmarshalChunk[T any](c Codec[T], payload []byte) ([]T, error) {
	h := unmarshalNS.Load()
	defer h.Done(h.Start())
	if IsCompressedChunk(payload) {
		return decodeEnvelope(c, payload, nil, true)
	}
	d, err := openChunk(c.Name, payload)
	if err != nil {
		return nil, err
	}
	return c.DecodeSlice(d)
}

// UnmarshalChunkInto parses a payload produced by MarshalChunk directly into
// dst, returning the element count. It never retains payload, so callers may
// release a borrowed transport buffer as soon as it returns. Codecs without
// a DecodeInto fast path fall back to DecodeSlice plus a copy.
func UnmarshalChunkInto[T any](c Codec[T], payload []byte, dst []T) (int, error) {
	h := unmarshalNS.Load()
	defer h.Done(h.Start())
	if IsCompressedChunk(payload) {
		vals, err := decodeEnvelope(c, payload, dst, false)
		return len(vals), err
	}
	// A packed chunk that fits is one copy, with no decoder to allocate.
	if c.packed() && len(payload) >= packedElemsOff {
		n := (len(payload) - packedElemsOff) / c.ElemWireSize
		if elems := c.packedElems(payload, n); elems != nil && n <= len(dst) {
			copy(c.HostBytes(dst[:n]), elems)
			return n, nil
		}
	}
	d, err := openChunk(c.Name, payload)
	if err != nil {
		return 0, err
	}
	if c.DecodeInto != nil {
		return c.DecodeInto(d, dst)
	}
	vals, err := c.DecodeSlice(d)
	if err != nil {
		return 0, err
	}
	if len(vals) > len(dst) {
		return 0, fmt.Errorf("dseq: %s chunk of %d exceeds destination %d", c.Name, len(vals), len(dst))
	}
	return copy(dst, vals), nil
}
