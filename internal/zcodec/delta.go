package zcodec

import (
	"encoding/binary"
	"time"
)

// Zig-zag varint delta-of-delta codec for integer blocks.
//
// Layout: uvarint element count, then the first value (zig-zag
// varint), the first delta (zig-zag varint), and one zig-zag varint
// delta-of-delta per remaining value. Linear ramps — the common shape
// of index-like integer payloads — collapse to one byte per value.
//
// All arithmetic is two's-complement wraparound in 64 bits on both
// sides, so blocks round-trip exactly even when deltas overflow.

// AppendInt64s appends the encoded block for vals to dst.
func AppendInt64s(dst []byte, vals []int64) []byte {
	t0 := time.Now()
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	var prev, prevDelta int64
	for i, v := range vals {
		switch i {
		case 0:
			dst = binary.AppendVarint(dst, v)
		case 1:
			prevDelta = v - prev
			dst = binary.AppendVarint(dst, prevDelta)
		default:
			d := v - prev
			dst = binary.AppendVarint(dst, d-prevDelta)
			prevDelta = d
		}
		prev = v
	}
	statEncode(8*len(vals), len(dst)-start, time.Since(t0))
	return dst
}

// AppendInt32s appends the encoded block for vals to dst.
func AppendInt32s(dst []byte, vals []int32) []byte {
	t0 := time.Now()
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	var prev, prevDelta int64
	for i, v := range vals {
		switch i {
		case 0:
			dst = binary.AppendVarint(dst, int64(v))
		case 1:
			prevDelta = int64(v) - prev
			dst = binary.AppendVarint(dst, prevDelta)
		default:
			d := int64(v) - prev
			dst = binary.AppendVarint(dst, d-prevDelta)
			prevDelta = d
		}
		prev = int64(v)
	}
	statEncode(4*len(vals), len(dst)-start, time.Since(t0))
	return dst
}

// DecodeInt64sInto decodes a block produced by AppendInt64s into dst,
// whose length must equal the encoded element count. src must be exactly
// the block: a byte after its last element is ErrCorrupt.
func DecodeInt64sInto(dst []int64, src []byte) error {
	t0 := time.Now()
	n, rest, err := intHeader(src)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return ErrCount
	}
	if err := decodeInt64sBody(dst, rest); err != nil {
		return err
	}
	statDecode(8*len(dst), len(src), time.Since(t0))
	return nil
}

// DecodeInt32sInto decodes a block produced by AppendInt32s into dst,
// whose length must equal the encoded element count. src must be exactly
// the block, as for DecodeInt64sInto.
func DecodeInt32sInto(dst []int32, src []byte) error {
	t0 := time.Now()
	n, rest, err := intHeader(src)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return ErrCount
	}
	if err := decodeInt32sBody(dst, rest); err != nil {
		return err
	}
	statDecode(4*len(dst), len(src), time.Since(t0))
	return nil
}

func intHeader(src []byte) (int, []byte, error) {
	c, k := binary.Uvarint(src)
	if k <= 0 {
		return 0, nil, ErrTruncated
	}
	if c > MaxBlockElems {
		return 0, nil, ErrTooLarge
	}
	return int(c), src[k:], nil
}

// decodeInt64sBody decodes len(dst) varints, which must be all of src.
func decodeInt64sBody(dst []int64, src []byte) error {
	var prev, prevDelta int64
	pos := 0
	for i := range dst {
		v, k := binary.Varint(src[pos:])
		if k <= 0 {
			return ErrTruncated
		}
		pos += k
		switch i {
		case 0:
			prev = v
		case 1:
			prevDelta = v
			prev += v
		default:
			prevDelta += v
			prev += prevDelta
		}
		dst[i] = prev
	}
	if pos != len(src) {
		return ErrCorrupt
	}
	return nil
}

// decodeInt32sBody is decodeInt64sBody storing int32s.
func decodeInt32sBody(dst []int32, src []byte) error {
	var prev, prevDelta int64
	pos := 0
	for i := range dst {
		v, k := binary.Varint(src[pos:])
		if k <= 0 {
			return ErrTruncated
		}
		pos += k
		switch i {
		case 0:
			prev = v
		case 1:
			prevDelta = v
			prev += v
		default:
			prevDelta += v
			prev += prevDelta
		}
		dst[i] = int32(prev)
	}
	if pos != len(src) {
		return ErrCorrupt
	}
	return nil
}
