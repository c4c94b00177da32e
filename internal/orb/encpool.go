package orb

import (
	"sync"

	"repro/internal/cdr"
	"repro/internal/wire"
)

// Reply-side scratch pooling. Every dispatched request needs a CDR encoder
// for its reply body, a decoder for its arguments and the Reply it writes; at
// massive fan-in those are the dominant per-request allocations on the
// server. They are recycled together through small size classes of the
// encoder (mirroring the transport frame pools) so a burst of large replies
// does not leave megabyte buffers pinned under a steady state of small ones:
// each class has its own sync.Pool and scratch returns to the class its
// encoder's capacity fits; beyond the largest class it is dropped for the GC.
var encClasses = [...]int{
	4 << 10,  // typical scalar/short-sequence replies
	64 << 10, // bulk argument pages
	4 << 20,  // matches the transport pool's largest frame class
}

var encPools [len(encClasses)]sync.Pool

// replyScratch is one dispatch's reply body, argument decoder and Reply, valid
// until the reply is written.
type replyScratch struct {
	out   *cdr.Encoder
	in    cdr.Decoder
	reply wire.Reply
}

// getReplyScratch returns scratch whose encoder is a ready argument encoder
// (order octet written), from the smallest class with any, or fresh.
func getReplyScratch() *replyScratch {
	for i := range encPools {
		if v := encPools[i].Get(); v != nil {
			rs := v.(*replyScratch)
			ResetArgEncoder(rs.out)
			return rs
		}
	}
	return &replyScratch{out: NewArgEncoder()}
}

// putReplyScratch recycles rs into its encoder's size class, holding no
// argument or reply bytes. The caller must be done with every Bytes() slice
// taken from it: the next getReplyScratch will overwrite the buffer.
func putReplyScratch(rs *replyScratch) {
	rs.in, rs.reply = cdr.Decoder{}, wire.Reply{}
	for i, max := range encClasses {
		if rs.out.Cap() <= max {
			encPools[i].Put(rs)
			return
		}
	}
	// Larger than the biggest class: let the GC take it rather than pin it.
}

// requests recycles the client's Request messages, each put back, emptied,
// once its write has returned: the transport has written it, Args and all.
var requests = sync.Pool{New: func() any { return new(wire.Request) }}
