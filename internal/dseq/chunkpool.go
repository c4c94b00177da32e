package dseq

import (
	"sync"

	"repro/internal/bufpool"
	"repro/internal/cdr"
)

// Every byte slice a range gather or scatter hands to an rts mailbox is rented
// from bufpool.Chunks by the rank that renders it and returned by the rank
// that consumes it: bufpool has the rule.

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
		buf = bufpool.Chunks.Rent(size)
	}
	e := encShells.Get().(*cdr.Encoder)
	e.Adopt(buf)
	return e
}

// detach ends a rentEncoder: the rendered bytes, which the caller now owns and
// bufpool.Chunks takes back from whoever consumes them, and the shell back
// for reuse.
func detach(e *cdr.Encoder) []byte {
	b := e.Bytes()
	e.Adopt(nil)
	encShells.Put(e)
	return b
}
