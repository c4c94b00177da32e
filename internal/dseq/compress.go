package dseq

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cdr"
	"repro/internal/zcodec"
)

// Compressed chunk envelopes. A raw chunk payload starts with a 0/1
// byte-order octet and FailMarker with 0xFF; the envelopes claim the
// markers 0x02 (single block) and 0x03 (parallel sub-blocks), so every
// payload kind is distinguishable from its first byte and
// pre-compression receivers reject an envelope cleanly ("bad chunk
// order flag") instead of misdecoding it. Layouts:
//
//	octet 0x02        — single-block envelope marker
//	octet codec       — zcodec.ID of the block that follows
//	bytes             — the zcodec block (count-prefixed, order-free)
//
//	octet 0x03        — sub-block envelope marker
//	octet codec       — zcodec.ID of every sub-block
//	uvarint nsub      — sub-block count (1..maxSubBlocks)
//	nsub ×
//	  uvarint len     — encoded byte length of the sub-block
//	  bytes           — one zcodec block; counts concatenate in order
//
// Sub-blocks exist so chunk-sized payloads encode and decode across
// GOMAXPROCS workers instead of stalling the send loop on one core.
// The 0x03 envelope is emitted only when the peer advertised
// zcodec.MaskSubBlock in the compression handshake; peers that predate
// it never offer the bit, so they keep receiving 0x02 envelopes —
// negotiated, structural backward compatibility.
//
// Envelopes appear only on connections whose Ping/Pong handshake
// negotiated the codec, so the rejection path is a safety net, not a
// protocol step.
const (
	compMarker    = 0x02
	compMarkerSub = 0x03
	compHeaderLen = 2
)

// compMinBytes gates compression by raw wire size: below this many
// payload bytes the envelope overhead and codec setup cost more than
// the bytes saved. The bar is bytes, not elements — 16 int32s is 64 B,
// not worth a codec header even though 16 float64s (128 B) was the old
// element-count break-even.
const compMinBytes = 128

// Sub-block tuning. A chunk splits into at most GOMAXPROCS sub-blocks
// of at least subBlockMinElems elements each; chunks below
// 2*subBlockMinElems can't form two blocks and stay single-block.
// maxSubBlocks caps what a decoder accepts from the wire so a corrupt
// header can't force unbounded frame-table work.
const (
	subBlockMinElems = 4096
	maxSubBlocks     = 256
)

// subScratch pools the per-sub-block encode buffers: each worker
// encodes into pooled scratch, the results are spliced into the final
// envelope, and the scratch goes back for the next chunk. Pointers to
// slices, per the usual sync.Pool idiom, so Put doesn't allocate.
var subScratch = sync.Pool{New: func() any { return new([]byte) }}

func getSubScratch(n int) *[]byte {
	bp := subScratch.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	return bp
}

// IsCompressedChunk reports whether a chunk payload carries a
// compressed envelope (either framing).
func IsCompressedChunk(p []byte) bool {
	return len(p) >= compHeaderLen && (p[0] == compMarker || p[0] == compMarkerSub)
}

// CompressedChunkInfo returns the codec and element count of a
// compressed chunk payload (wiredump and diagnostics).
func CompressedChunkInfo(p []byte) (zcodec.ID, int, error) {
	if !IsCompressedChunk(p) {
		return zcodec.None, 0, fmt.Errorf("dseq: not a compressed chunk")
	}
	if p[0] == compMarkerSub {
		_, total, err := subChunkBlocks(p)
		if err != nil {
			return zcodec.None, 0, err
		}
		return zcodec.ID(p[1]), total, nil
	}
	n, err := zcodec.BlockCount(p[compHeaderLen:])
	if err != nil {
		return zcodec.None, 0, err
	}
	return zcodec.ID(p[1]), n, nil
}

// MarshalChunkZ renders elements like MarshalChunk but compresses with
// the codec's block encoder when mask admits it and compression wins:
// if the envelope would not be smaller than the raw element bytes (the
// incompressible-data case), the chunk falls back to the raw encoding,
// so a compressed connection never sends more bytes than a raw one.
// When the mask carries zcodec.MaskSubBlock and the chunk is large
// enough to split, the elements encode as parallel sub-blocks. Mask
// zero is exactly MarshalChunk.
func MarshalChunkZ[T any](c Codec[T], v []T, mask uint8) []byte {
	e := cdr.NewEncoder(cdr.NativeOrder)
	marshalChunkZInto(c, e, v, mask)
	return e.Bytes()
}

// marshalChunkZInto appends MarshalChunkZ's rendering of v to e, whose
// alignment origin must be the current position (the raw fallback needs it;
// the envelopes are byte streams). The block is encoded in place: room for
// the codec's worst case is reserved in e and the unused rest given back.
func marshalChunkZInto[T any](c Codec[T], e *cdr.Encoder, v []T, mask uint8) {
	raw := c.ElemWireSize * len(v)
	if mask&zcodec.MaskCodecs == 0 || c.CompressAppend == nil ||
		raw < compMinBytes || !zcodec.HasCodec(mask, c.CompressID) {
		marshalChunkInto(c, e, v)
		return
	}
	h := marshalNS.Load()
	defer h.Done(h.Start())
	if mask&zcodec.MaskSubBlock != 0 && len(v) >= 2*subBlockMinElems && marshalChunkSub(c, e, v) {
		return
	}
	off := e.Len()
	buf := e.Extend(compHeaderLen + c.CompressBound(len(v)))
	buf[0], buf[1] = compMarker, byte(c.CompressID)
	out := c.CompressAppend(buf[:compHeaderLen], v)
	if len(out) >= raw || len(out) > len(buf) {
		e.Truncate(off)
		marshalChunkInto(c, e, v)
		return
	}
	e.Truncate(off + len(out))
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

// marshalChunkSub appends v to e as a 0x03 sub-block envelope, fanning the
// block encoders across pfor workers, or as the raw encoding when the
// envelope would not beat it. It reports false, with nothing appended, when
// the split degenerates to one block (caller emits the single-block
// envelope).
func marshalChunkSub[T any](c Codec[T], e *cdr.Encoder, v []T) bool {
	nsub := min(len(v)/subBlockMinElems, runtime.GOMAXPROCS(0), maxSubBlocks)
	if nsub < 2 {
		return false
	}
	per := (len(v) + nsub - 1) / nsub
	scratch := make([]*[]byte, nsub)
	pfor(nsub, func(i int) {
		lo := i * per
		hi := min(lo+per, len(v))
		bp := getSubScratch(c.CompressBound(hi - lo))
		*bp = c.CompressAppend((*bp)[:0], v[lo:hi])
		scratch[i] = bp
	})
	total := compHeaderLen + uvarintLen(uint64(nsub))
	for _, bp := range scratch {
		total += uvarintLen(uint64(len(*bp))) + len(*bp)
	}
	if total >= c.ElemWireSize*len(v) {
		marshalChunkInto(c, e, v)
	} else {
		out := append(e.Extend(total)[:0], compMarkerSub, byte(c.CompressID))
		out = binary.AppendUvarint(out, uint64(nsub))
		for _, bp := range scratch {
			out = binary.AppendUvarint(out, uint64(len(*bp)))
			out = append(out, *bp...)
		}
	}
	for _, bp := range scratch {
		subScratch.Put(bp)
	}
	return true
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// subBlock locates one block inside a 0x03 envelope: byte range
// relative to the envelope body, and the element range it decodes to.
type subBlock struct {
	off, size      int
	elemOff, elems int
}

// subChunkBlocks parses a sub-block envelope's frame table, returning
// the block layout and total element count. It validates every length
// against the payload so a corrupt table errors instead of panicking,
// and rejects trailing bytes.
func subChunkBlocks(p []byte) ([]subBlock, int, error) {
	body := p[compHeaderLen:]
	nsub64, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, 0, zcodec.ErrTruncated
	}
	if nsub64 == 0 || nsub64 > maxSubBlocks {
		return nil, 0, zcodec.ErrCorrupt
	}
	nsub := int(nsub64)
	blocks := make([]subBlock, nsub)
	pos, elemOff := k, 0
	for i := 0; i < nsub; i++ {
		size64, k2 := binary.Uvarint(body[pos:])
		if k2 <= 0 {
			return nil, 0, zcodec.ErrTruncated
		}
		pos += k2
		if size64 > uint64(len(body)-pos) {
			return nil, 0, zcodec.ErrTruncated
		}
		size := int(size64)
		n, err := zcodec.BlockCount(body[pos : pos+size])
		if err != nil {
			return nil, 0, err
		}
		if n > zcodec.MaxBlockElems-elemOff {
			return nil, 0, zcodec.ErrTooLarge
		}
		blocks[i] = subBlock{off: pos, size: size, elemOff: elemOff, elems: n}
		pos += size
		elemOff += n
	}
	if pos != len(body) {
		return nil, 0, zcodec.ErrCorrupt
	}
	return blocks, elemOff, nil
}

// decompressSubInto decodes a 0x03 envelope into dst across pfor
// workers, returning the element count.
func decompressSubInto[T any](c Codec[T], payload []byte, dst []T) (int, error) {
	if c.DecompressInto == nil || zcodec.ID(payload[1]) != c.CompressID {
		return 0, fmt.Errorf("dseq: %s chunk compressed with unexpected codec %v", c.Name, zcodec.ID(payload[1]))
	}
	blocks, total, err := subChunkBlocks(payload)
	if err != nil {
		return 0, err
	}
	if total > len(dst) {
		return 0, fmt.Errorf("dseq: %s chunk of %d exceeds destination %d", c.Name, total, len(dst))
	}
	body := payload[compHeaderLen:]
	errs := make([]error, len(blocks))
	pfor(len(blocks), func(i int) {
		b := blocks[i]
		errs[i] = c.DecompressInto(dst[b.elemOff:b.elemOff+b.elems], body[b.off:b.off+b.size])
	})
	for _, e := range errs {
		if e != nil {
			return 0, e
		}
	}
	return total, nil
}

// decompressChunk decodes a compressed envelope, allocating the result.
func decompressChunk[T any](c Codec[T], payload []byte) ([]T, error) {
	if payload[0] == compMarkerSub {
		_, total, err := subChunkBlocks(payload)
		if err != nil {
			return nil, err
		}
		dst := make([]T, total)
		if _, err := decompressSubInto(c, payload, dst); err != nil {
			return nil, err
		}
		return dst, nil
	}
	id, _, err := CompressedChunkInfo(payload)
	if err != nil {
		return nil, err
	}
	if c.Decompress == nil || id != c.CompressID {
		return nil, fmt.Errorf("dseq: %s chunk compressed with unexpected codec %v", c.Name, id)
	}
	return c.Decompress(payload[compHeaderLen:], zcodec.MaxBlockElems)
}

// decompressChunkInto decodes a compressed envelope into dst, returning
// the element count, mirroring UnmarshalChunkInto's contract.
func decompressChunkInto[T any](c Codec[T], payload []byte, dst []T) (int, error) {
	if payload[0] == compMarkerSub {
		return decompressSubInto(c, payload, dst)
	}
	id, n, err := CompressedChunkInfo(payload)
	if err != nil {
		return 0, err
	}
	if c.DecompressInto == nil || id != c.CompressID {
		return 0, fmt.Errorf("dseq: %s chunk compressed with unexpected codec %v", c.Name, id)
	}
	if n > len(dst) {
		return 0, fmt.Errorf("dseq: %s chunk of %d exceeds destination %d", c.Name, n, len(dst))
	}
	if err := c.DecompressInto(dst[:n], payload[compHeaderLen:]); err != nil {
		return 0, err
	}
	return n, nil
}
