// Package bufpool is this module's one byte-buffer pool: the frames
// transport reads into and the chunks dseq hands through rts mailboxes are
// rented from it and returned to it under one rule.
//
// The rule. A buffer is rented by whoever renders bytes into it — the
// connection reading a frame, the rank marshalling a gather part or a scatter
// piece — and returned by whoever consumes those bytes, exactly once, when
// nothing aliases them any more: the final consumer of a wire.Data, Request or
// Reply through its Release (the leg that stores a chunk, the object adapter
// once the reply is written, the client once the reply's arguments are copied
// out), the gather root once a part is placed, the scatter owner once its
// elements are stored. In between exactly one party references the buffer;
// the renderer does not touch it after the hand-off and never takes it back,
// except one it rented and then failed to fill. A frame whose consumer gives
// up while a reader it cannot wait for may still hold it — a request whose
// object stopped with the call in its loop — is written off (WriteOff):
// counted back, never reused, and the collector's once that reader lets go.
//
// The handle is a plain []byte. Return recognises a pool buffer by its exact
// capacity, so whatever else reaches it — a buffer over the largest class,
// one append outgrew, a sub-slice that lost its front, a caller's own payload,
// dseq's shared fail marker — is the garbage collector's and leaves the ledger
// alone. Capacity is the test because it is the one property that survives a
// buffer's trip through an encoder, a mailbox and a decoder as a bare slice; a
// wrapper handle would have to travel beside the bytes through every one of
// them. The converse holds too: a foreign buffer whose capacity happens to be
// a class's is taken for the pool's (the only one append can produce is the
// smallest, 576), which is safe — Return's contract is that the caller holds
// the last reference — but shows in the ledger, so return only what was
// rented.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Class geometry. A class holds a power-of-two payload plus Headroom for what
// travels in front of it — a Data body's prefix, a chunk's own header — so a
// power-of-two payload rents its own class, not the next one up: the default
// 64 KiB stream chunk and the frame that carries it both rent the 64 KiB
// class.
const (
	minClass = 9  // 512 B: smaller requests share the smallest class
	maxClass = 22 // 4 MiB: a whole-payload part of the paper's argument
	Headroom = 64
)

// Pool is a size-classed pool with a ledger. The zero value is ready.
type Pool struct {
	// classes hold each class's idle buffers by base pointer; the class gives
	// the capacity back.
	classes [maxClass - minClass + 1]sync.Pool

	hits, misses, returns atomic.Uint64

	// OnReturn, set by tests before any buffer moves, sees every buffer at
	// full capacity as it re-enters the pool.
	OnReturn func([]byte)
}

// The two instances. They share everything but the ledger, and the ledgers
// stay apart because they promise different things: a frame is always given
// back — every path of the transport and of a Data consumer ends in a return,
// so Frames owing anything at quiescence is a leak — while a chunk whose
// consumer died with its world (a collective that timed out, a mailbox nobody
// drains) is left to the collector, never taken back while a mailbox may still
// reference it, so Chunks balances only after fault-free transfers.
var (
	Frames Pool // transport receive frames
	Chunks Pool // dseq gather parts and scatter pieces
)

// Stats is a point-in-time copy of a pool's ledger. A hit is a Rent served
// from the pool, a miss one that allocated; Returns counts buffers that came
// back. Requests over the largest class and buffers Return does not recognise
// appear nowhere.
type Stats struct {
	Hits, Misses, Returns uint64
}

// Outstanding is the number of buffers on loan: rented and not yet returned.
func (s Stats) Outstanding() int64 {
	return int64(s.Hits+s.Misses) - int64(s.Returns)
}

// Stats reads the ledger. It is process-wide, as the pool is.
func (p *Pool) Stats() Stats {
	return Stats{Hits: p.hits.Load(), Misses: p.misses.Load(), Returns: p.returns.Load()}
}

// Rent returns an empty buffer with room for n bytes. A request over the
// largest class is a plain allocation Return will not recognise.
func (p *Pool) Rent(n int) []byte {
	if n > 1<<maxClass+Headroom {
		return make([]byte, 0, n)
	}
	cl := max(bits.Len(uint(max(n-Headroom, 1))-1), minClass)
	if b, ok := p.classes[cl-minClass].Get().(*byte); ok {
		p.hits.Add(1)
		return unsafe.Slice(b, 1<<cl+Headroom)[:0]
	}
	p.misses.Add(1)
	return make([]byte, 0, 1<<cl+Headroom)
}

// Return gives a consumed buffer back; the caller must hold the last reference
// to it. Anything that is not a whole pool buffer is ignored.
func (p *Pool) Return(b []byte) { p.settle(b, true) }

// WriteOff settles a buffer a reader may still hold (see the rule): the ledger
// counts it back, and the pool never hands it out again.
func (p *Pool) WriteOff(b []byte) { p.settle(b, false) }

func (p *Pool) settle(b []byte, put bool) {
	c := cap(b) - Headroom
	if c < 1<<minClass || c > 1<<maxClass || c&(c-1) != 0 {
		return
	}
	p.returns.Add(1)
	if !put {
		return
	}
	if p.OnReturn != nil {
		p.OnReturn(b[:cap(b)])
	}
	p.classes[bits.TrailingZeros(uint(c))-minClass].Put(unsafe.SliceData(b))
}
