package dseq

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"repro/internal/cdr"
	"repro/internal/zcodec"
)

// The compressed chunk envelope. A raw chunk payload starts with a 0/1
// byte-order octet and FailMarker with 0xFF; the envelope claims 0x02, so
// every payload kind is told from its first byte. Layout:
//
//	octet 0x02        — envelope marker
//	octet codec       — zcodec.ID of every block
//	uint16 nsub       — block count (1..maxSubBlocks), little-endian
//	nsub ×
//	  uint32 len      — encoded byte length of the block, little-endian
//	  bytes           — one zcodec block; element counts concatenate in order
//
// Blocks exist so chunk-sized payloads encode and decode across GOMAXPROCS
// workers instead of stalling the send loop on one core; a chunk too small
// to split is the nsub = 1 case of the same layout. The widths are fixed so
// that every block is encoded where it travels: the codec's worst case is
// reserved behind each length slot, the workers fill the slots, and the
// blocks are closed up in place.
//
// Envelopes appear only on connections whose Ping/Pong handshake negotiated
// the codec.
const (
	envelopeMarker = 0x02
	compHeaderLen  = 4
	compLenLen     = 4
)

// compMinBytes gates compression by raw wire size: below this many
// payload bytes the envelope overhead and codec setup cost more than
// the bytes saved. The bar is bytes, not elements — 16 int32s is 64 B,
// not worth a codec header even though 16 float64s (128 B) may be.
const compMinBytes = 128

// Block tuning. A chunk splits into at most GOMAXPROCS blocks of at least
// subBlockMinElems elements each. maxSubBlocks caps what a decoder accepts
// from the wire so a corrupt header can't force unbounded frame-table work.
const (
	subBlockMinElems = 4096
	maxSubBlocks     = 256
)

// subBlocks returns how many blocks an n-element chunk splits into and the
// element count of each but the last.
func subBlocks(n int) (nsub, per int) {
	nsub = max(1, min(n/subBlockMinElems, runtime.GOMAXPROCS(0), maxSubBlocks))
	return nsub, (n + nsub - 1) / nsub
}

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
	nsub, per := subBlocks(len(v))
	slot := compLenLen + c.CompressBound(per)
	off := e.Len()
	buf := e.Extend(compHeaderLen + nsub*slot)
	buf[0], buf[1] = envelopeMarker, byte(c.CompressID)
	binary.LittleEndian.PutUint16(buf[2:], uint16(nsub))
	pfor(nsub, func(i int) {
		lo := i * per
		b := buf[compHeaderLen+i*slot:][:slot:slot]
		out := c.CompressAppend(b[compLenLen:compLenLen], v[lo:min(lo+per, len(v))])
		// A block that outgrew its slot was reallocated and is not in b; its
		// length says so below.
		binary.LittleEndian.PutUint32(b, uint32(len(out)))
	})
	size := compHeaderLen
	for i := 0; i < nsub && size < raw; i++ {
		b := buf[compHeaderLen+i*slot:][:slot]
		n := compLenLen + int(binary.LittleEndian.Uint32(b))
		if n > slot {
			size = raw
			break
		}
		copy(buf[size:], b[:n])
		size += n
	}
	if size >= raw {
		e.Truncate(off)
		marshalChunkInto(c, e, v)
		return
	}
	e.Truncate(off + size)
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
		nsub, per := subBlocks(n)
		size = max(size, compHeaderLen+nsub*(compLenLen+c.CompressBound(per)))
	}
	return size
}

// subBlock locates one block inside an envelope: its byte range in the
// payload, and the element range it decodes to.
type subBlock struct {
	off, size      int
	elemOff, elems int
}

// envelopeBlocks parses an envelope's frame table, returning the block
// layout and total element count. It validates every length against the
// payload so a corrupt table errors instead of panicking, and rejects
// trailing bytes.
func envelopeBlocks(p []byte) ([]subBlock, int, error) {
	if len(p) < compHeaderLen {
		return nil, 0, zcodec.ErrTruncated
	}
	nsub := int(binary.LittleEndian.Uint16(p[2:]))
	if nsub == 0 || nsub > maxSubBlocks {
		return nil, 0, zcodec.ErrCorrupt
	}
	blocks := make([]subBlock, nsub)
	pos, elemOff := compHeaderLen, 0
	for i := range blocks {
		if len(p)-pos < compLenLen {
			return nil, 0, zcodec.ErrTruncated
		}
		size64 := uint64(binary.LittleEndian.Uint32(p[pos:]))
		pos += compLenLen
		if size64 > uint64(len(p)-pos) {
			return nil, 0, zcodec.ErrTruncated
		}
		size := int(size64)
		n, err := zcodec.BlockCount(p[pos : pos+size])
		if err != nil {
			return nil, 0, err
		}
		if n > zcodec.MaxBlockElems-elemOff {
			return nil, 0, zcodec.ErrTooLarge
		}
		// Every codec spends at least a bit per element, which bounds what a
		// forged count can make the allocating decoder reserve.
		if n > 8*size {
			return nil, 0, zcodec.ErrCorrupt
		}
		blocks[i] = subBlock{off: pos, size: size, elemOff: elemOff, elems: n}
		pos += size
		elemOff += n
	}
	if pos != len(p) {
		return nil, 0, zcodec.ErrCorrupt
	}
	return blocks, elemOff, nil
}

// decodeEnvelope decodes an envelope across pfor workers and returns the
// decoded elements: a new slice of the envelope's own element count when
// alloc is set, otherwise a prefix of dst — failing, with nothing stored,
// when the envelope holds more than len(dst) elements.
func decodeEnvelope[T any](c Codec[T], payload []byte, dst []T, alloc bool) ([]T, error) {
	blocks, total, err := envelopeBlocks(payload)
	if err != nil {
		return nil, err
	}
	if id := zcodec.ID(payload[1]); c.DecompressInto == nil || id != c.CompressID {
		return nil, fmt.Errorf("dseq: %s chunk compressed with unexpected codec %v", c.Name, id)
	}
	if alloc {
		dst = make([]T, total)
	} else if total > len(dst) {
		return nil, fmt.Errorf("dseq: %s chunk of %d exceeds destination %d", c.Name, total, len(dst))
	}
	errs := make([]error, len(blocks))
	pfor(len(blocks), func(i int) {
		b := blocks[i]
		errs[i] = c.DecompressInto(dst[b.elemOff:b.elemOff+b.elems], payload[b.off:b.off+b.size])
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return dst[:total], nil
}
