package dseq

import (
	"fmt"

	"repro/internal/cdr"
	"repro/internal/zcodec"
)

// The compressed chunk envelope. A raw chunk payload starts with a 0/1
// byte-order octet and FailMarker with 0xFF; the envelope claims 0x02, so
// every payload kind is told from its first byte. Layout:
//
//	octet 0x02  — envelope marker
//	octet codec — zcodec.ID of the block
//	bytes       — one zcodec block, to the end of the payload
//
// A chunk is one block: the thread that renders the chunk encodes it, straight
// into the bytes it sends, and the thread that stores it decodes it.
//
// Envelopes appear only on connections whose Ping/Pong handshake negotiated
// the codec.
const (
	envelopeMarker = 0x02
	compHeaderLen  = 2
)

// compMinBytes gates compression by raw wire size: below this many
// payload bytes the envelope overhead and codec setup cost more than
// the bytes saved. The bar is bytes, not elements — 16 int32s is 64 B,
// not worth a codec header even though 16 float64s (128 B) may be.
const compMinBytes = 128

// IsCompressedChunk reports whether a chunk payload is a compressed
// envelope.
func IsCompressedChunk(p []byte) bool { return len(p) > 0 && p[0] == envelopeMarker }

// ChunkCodec returns the codec of a compressed envelope (wiredump and
// diagnostics), zcodec.None for any other payload.
func ChunkCodec(p []byte) zcodec.ID {
	if len(p) < compHeaderLen || !IsCompressedChunk(p) {
		return zcodec.None
	}
	return zcodec.ID(p[1])
}

// MarshalChunkZ renders elements like MarshalChunk but compresses with
// the codec's block encoder when mask admits it and compression wins:
// if the envelope would not be smaller than the raw element bytes (the
// incompressible-data case), the chunk falls back to the raw encoding,
// so a compressed connection never sends more bytes than a raw one.
// Mask zero is exactly MarshalChunk.
func MarshalChunkZ[T any](c Codec[T], v []T, mask uint8) []byte {
	e := cdr.NewEncoder(cdr.NativeOrder)
	marshalChunkZInto(c, e, v, mask)
	return e.Bytes()
}

// marshalChunkZInto appends MarshalChunkZ's rendering of v to e, whose
// alignment origin must be the current position (the raw fallback needs it;
// the envelope is a byte stream). Room for the codec's worst case is reserved
// in e and the unused rest given back.
func marshalChunkZInto[T any](c Codec[T], e *cdr.Encoder, v []T, mask uint8) {
	raw := c.ElemWireSize * len(v)
	if c.CompressAppend == nil || raw < compMinBytes || !zcodec.HasCodec(mask, c.CompressID) {
		marshalChunkInto(c, e, v)
		return
	}
	h := marshalNS.Load()
	defer h.Done(h.Start())
	off := e.Len()
	buf := e.Extend(compHeaderLen + c.CompressBound(len(v)))
	buf[0], buf[1] = envelopeMarker, byte(c.CompressID)
	// Every bound is at least the raw size, so a block that reached past its
	// room — into a reallocated slice, not buf — fails the test too.
	if size := compHeaderLen + len(c.CompressAppend(buf[compHeaderLen:compHeaderLen], v)); size < raw {
		e.Truncate(off + size)
		return
	}
	e.Truncate(off)
	marshalChunkInto(c, e, v)
}

// chunkBound returns a size no rendering of an n-element chunk under mask
// exceeds — what a rented buffer must hold — or 0 when the codec's chunks
// have no fixed width to compute it from.
func (c Codec[T]) chunkBound(n int, mask uint8) int {
	if !c.packed() {
		return 0
	}
	size := packedElemsOff + n*c.ElemWireSize
	if mask != 0 && c.CompressBound != nil {
		size = max(size, compHeaderLen+c.CompressBound(n))
	}
	return size
}

// decodeEnvelope decodes an envelope and returns the decoded elements: a new
// slice of the block's own element count when alloc is set, otherwise a prefix
// of dst — failing, with nothing stored, when the block holds more than
// len(dst) elements. The block decoder refuses bytes behind the block.
func decodeEnvelope[T any](c Codec[T], payload []byte, dst []T, alloc bool) ([]T, error) {
	if len(payload) < compHeaderLen {
		return nil, zcodec.ErrTruncated
	}
	if id := zcodec.ID(payload[1]); c.DecompressInto == nil || id != c.CompressID {
		return nil, fmt.Errorf("dseq: %s chunk compressed with unexpected codec %v", c.Name, id)
	}
	block := payload[compHeaderLen:]
	n, err := zcodec.BlockCount(block)
	if err != nil {
		return nil, err
	}
	// Every codec spends at least a bit per element, which bounds what a
	// forged count can make the allocating decoder reserve.
	if n > 8*len(block) {
		return nil, zcodec.ErrCorrupt
	}
	if alloc {
		dst = make([]T, n)
	} else if n > len(dst) {
		return nil, fmt.Errorf("dseq: %s chunk of %d exceeds destination %d", c.Name, n, len(dst))
	}
	if err := c.DecompressInto(dst[:n], block); err != nil {
		return nil, err
	}
	return dst[:n], nil
}
