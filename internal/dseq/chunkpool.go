package dseq

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/cdr"
)

// Chunk buffer pool. Every byte slice a range gather or scatter hands to an
// rts mailbox is rented here by the rank that renders it and returned by the
// rank that consumes it — the gather root once the part is placed, the
// scatter owner once it is stored. The mailbox hands slices off without
// copying, so in between exactly one rank references the buffer: the renderer
// does not touch it after the send, and the consumer returns it only when
// nothing still aliases it. A buffer whose consumer never comes (a timed-out
// collective, a closed world) is left to the garbage collector.
//
// Classes hold a power-of-two payload plus chunkHeadroom for the chunk's own
// header, so the default 64 KiB chunk rents a 64 KiB-class buffer. putChunk
// recognises pool buffers by that exact capacity, as transport.putBuf does:
// the shared FailMarker, caller-owned payloads, encoder-grown and oversize
// buffers all fail the test and stay the GC's.
const (
	minChunkClass = 10 // 1 KiB: smaller parts share the smallest class
	maxChunkClass = 22 // 4 MiB: a whole-payload part of the paper's argument
	chunkHeadroom = 64
)

// chunkPools holds each class's idle buffers by base pointer; the class gives
// the capacity back.
var chunkPools [maxChunkClass + 1]sync.Pool

// The ledger (buffers rented and returned: equal at quiescence after
// fault-free transfers) and the hook tests set, before any transfer runs, to
// see every buffer at full capacity as it re-enters the pool.
var (
	chunkGets, chunkPuts atomic.Uint64
	onChunkPut           func([]byte)
)

// getChunk rents an empty buffer with room for n bytes. Sizes over the largest
// class are plain allocations putChunk will not recognise.
func getChunk(n int) []byte {
	if n > 1<<maxChunkClass+chunkHeadroom {
		return make([]byte, 0, n)
	}
	cl := max(bits.Len(uint(max(n-chunkHeadroom, 1))-1), minChunkClass)
	chunkGets.Add(1)
	if p, ok := chunkPools[cl].Get().(*byte); ok {
		return unsafe.Slice(p, 1<<cl+chunkHeadroom)[:0]
	}
	return make([]byte, 0, 1<<cl+chunkHeadroom)
}

// putChunk returns a consumed buffer; anything that is not a whole pool
// buffer is ignored.
func putChunk(b []byte) {
	c := cap(b) - chunkHeadroom
	if c < 1<<minChunkClass || c > 1<<maxChunkClass || c&(c-1) != 0 {
		return
	}
	chunkPuts.Add(1)
	if onChunkPut != nil {
		onChunkPut(b[:cap(b)])
	}
	chunkPools[bits.TrailingZeros(uint(c))].Put(unsafe.SliceData(b))
}

// encShells recycles the encoders rented buffers are rendered through. A
// shell's bytes always live in an adopted buffer, never in its inline array,
// so it can be reused while the bytes are still in flight.
var encShells = sync.Pool{New: func() any { return cdr.NewEncoder(cdr.NativeOrder) }}

// rentEncoder returns an encoder over a rented buffer with room for size
// bytes, or — size 0: the element codec cannot bound its chunks — over
// nothing, so whatever it appends is garbage-collected memory.
func rentEncoder(size int) *cdr.Encoder {
	var buf []byte
	if size > 0 {
		buf = getChunk(size)
	}
	e := encShells.Get().(*cdr.Encoder)
	e.Adopt(buf)
	return e
}

// detach ends a rentEncoder: the rendered bytes, which the caller now owns and
// putChunk accepts from whoever consumes them, and the shell back for reuse.
func detach(e *cdr.Encoder) []byte {
	b := e.Bytes()
	e.Adopt(nil)
	encShells.Put(e)
	return b
}
