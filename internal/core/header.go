package core

import (
	"fmt"

	"repro/internal/cdr"
	"repro/internal/dist"
)

// invocationHeader is the SPMD extension of a request: it rides inside the
// PGIOP Request's argument payload and tells the server everything it needs
// to receive the distributed arguments. The header knows no argument data: in
// the centralized method the In/InOut data follows it in the same message, one
// step of the schedule per argument (checkSteps), or as chunked Data
// messages when ChunkElems is set; in the multi-port method the data follows as
// chunked Data messages between the owning threads, cut from the plans in chunks
// of ChunkElems. Every field travels in every header. Each leg of a centralized
// invocation is placed by itself: the client decides the request leg and says
// so in ChunkElems, the server — it alone knows an out length — decides the
// reply leg within what ResultChunkElems offers and says so in the reply header.
type invocationHeader struct {
	Op     string
	Method Method
	// Epoch is the membership epoch the client bound at (from the IOR of an
	// elastic object); 0 for an object that is not elastic. The server
	// refuses a header whose epoch is not its own.
	Epoch uint32
	// ChunkElems is the request-leg chunk size of a streamed centralized
	// invocation, in elements; 0 means the leg's steps ride in the message. On a
	// multi-port header it is the chunk size both direct legs start from
	// (chunkElemsFor), and never 0: a direct leg is always chunked.
	ChunkElems uint32
	// ResultChunkElems is the chunk size, in elements, the client takes streamed
	// results in: the server may chunk the reply leg from it (doubled until the
	// schedule fits, as chunkElemsFor does). 0 keeps the results in the Reply,
	// and is all a multi-port header may say: its back leg is direct.
	ResultChunkElems uint32
	Token            uint32 // ties multi-port and streamed Data transfers to this invocation
	ClientRanks      int
	Scalars          []byte // opaque marshalled non-distributed arguments
	Args             []headerArg
}

// shape reads the legs' shape off the header: the method names it.
func (h *invocationHeader) shape() shape {
	if h.Method == Multiport {
		return shapeDirect
	}
	return shapeCentral
}

type headerArg struct {
	Dir    Dir
	Elem   string
	Layout dist.Layout // In/InOut: the client's current layout
	Spec   dist.Spec   // Out: the client's template for the result
}

// encode writes the header: the one function that does, for the request thread
// 0 sends and for the directive the other computing threads learn a call from.
func (h *invocationHeader) encode(e *cdr.Encoder) {
	e.WriteString(h.Op)
	e.WriteEnum(uint32(h.Method))
	e.WriteULong(h.Epoch)
	e.WriteULong(h.ChunkElems)
	e.WriteULong(h.ResultChunkElems)
	e.WriteULong(h.Token)
	e.WriteULong(uint32(h.ClientRanks))
	e.WriteOctets(h.Scalars)
	e.WriteULong(uint32(len(h.Args)))
	for _, a := range h.Args {
		e.WriteEnum(uint32(a.Dir))
		e.WriteString(a.Elem)
		if a.Dir == Out {
			spec := a.Spec
			if spec == nil {
				spec = dist.Block{}
			}
			dist.EncodeSpec(e, spec)
		} else {
			dist.EncodeLayout(e, a.Layout)
		}
	}
}

// checkSteps refuses what follows a header in its message — d stands there, and
// the caller's cursor stays there: d is a copy — unless it is exactly the steps
// the leg's placement puts in the message: framed (or direct), nothing; else
// one sequence<octet> per argument the leg carries, every one of args but those
// of direction skip, and not a byte after the last. Thread 0 can tell that much
// from the message alone, before another thread is involved; what a step holds
// is the walk's to judge (recvChunks).
func checkSteps(d cdr.Decoder, args []ArgDesc, skip Dir, framed bool) error {
	steps := 0
	for _, a := range args {
		if !framed && a.Dir != skip {
			steps++
		}
	}
	for i := 0; i < steps; i++ {
		if _, err := d.ReadOctets(); err != nil {
			return fmt.Errorf("%w: step %d of the %d the message carries: %v", ErrBadHeader, i, steps, err)
		}
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes after the last of the %d steps the message carries", ErrBadHeader, d.Remaining(), steps)
	}
	return nil
}

// decodeInvocationHeader reads a header, outside input to the server, and stops
// at its end: what follows in the message is checkSteps' and the walk's.
func decodeInvocationHeader(d *cdr.Decoder) (*invocationHeader, error) {
	var h invocationHeader
	var err error
	if h.Op, err = d.ReadStringInterned(); err != nil {
		return nil, fmt.Errorf("%w: op: %v", ErrBadHeader, err)
	}
	m, err := d.ReadEnum()
	if err != nil {
		return nil, fmt.Errorf("%w: method: %v", ErrBadHeader, err)
	}
	if m > uint32(Multiport) {
		return nil, fmt.Errorf("%w: method %d", ErrBadHeader, m)
	}
	h.Method = Method(m)
	if h.Epoch, err = d.ReadULong(); err != nil {
		return nil, fmt.Errorf("%w: epoch: %v", ErrBadHeader, err)
	}
	if h.Epoch > 1<<30 {
		return nil, fmt.Errorf("%w: epoch %d", ErrBadHeader, h.Epoch)
	}
	if h.ChunkElems, err = d.ReadULong(); err != nil {
		return nil, fmt.Errorf("%w: chunk elems: %v", ErrBadHeader, err)
	}
	if h.ChunkElems > 1<<30 || (h.ChunkElems == 0 && h.Method == Multiport) {
		return nil, fmt.Errorf("%w: %v chunk elems %d", ErrBadHeader, h.Method, h.ChunkElems)
	}
	if h.ResultChunkElems, err = d.ReadULong(); err != nil {
		return nil, fmt.Errorf("%w: result chunk elems: %v", ErrBadHeader, err)
	}
	if h.ResultChunkElems > 1<<30 || (h.ResultChunkElems != 0 && h.Method != Centralized) {
		return nil, fmt.Errorf("%w: %v result chunk elems %d", ErrBadHeader, h.Method, h.ResultChunkElems)
	}
	if h.Token, err = d.ReadULong(); err != nil {
		return nil, fmt.Errorf("%w: token: %v", ErrBadHeader, err)
	}
	ranks, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("%w: ranks: %v", ErrBadHeader, err)
	}
	if ranks == 0 || ranks > 1<<20 {
		return nil, fmt.Errorf("%w: %d client ranks", ErrBadHeader, ranks)
	}
	h.ClientRanks = int(ranks)
	if h.Scalars, err = d.ReadOctets(); err != nil {
		return nil, fmt.Errorf("%w: scalars: %v", ErrBadHeader, err)
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("%w: arg count: %v", ErrBadHeader, err)
	}
	if n > 1<<12 {
		return nil, fmt.Errorf("%w: %d dist args", ErrBadHeader, n)
	}
	h.Args = make([]headerArg, n)
	for i := range h.Args {
		a := &h.Args[i]
		dir, err := d.ReadEnum()
		if err != nil {
			return nil, fmt.Errorf("%w: arg %d dir: %v", ErrBadHeader, i, err)
		}
		if dir > uint32(InOut) {
			return nil, fmt.Errorf("%w: arg %d dir %d", ErrBadHeader, i, dir)
		}
		a.Dir = Dir(dir)
		if a.Elem, err = d.ReadStringInterned(); err != nil {
			return nil, fmt.Errorf("%w: arg %d elem: %v", ErrBadHeader, i, err)
		}
		if a.Dir == Out {
			if a.Spec, err = dist.DecodeSpec(d); err != nil {
				return nil, fmt.Errorf("%w: arg %d spec: %v", ErrBadHeader, i, err)
			}
		} else {
			if a.Layout, err = dist.DecodeLayout(d); err != nil {
				return nil, fmt.Errorf("%w: arg %d layout: %v", ErrBadHeader, i, err)
			}
		}
	}
	return &h, nil
}

// replyHeader is the SPMD extension of a reply: scalar results, the placement
// the server chose for the reply leg and, per distributed argument, the
// direction and the final length (the client needs it to size Out results).
// Where a centralized reply leg is placed in the message, its steps follow the
// header, one per Out/InOut argument (checkSteps).
type replyHeader struct {
	Scalars []byte
	// ChunkElems is the reply leg's chunk size: the results were written as
	// chunked Data messages ahead of the Reply, on its connection. 0 means they
	// ride in the Reply, after this header (or, multi-port, went between the
	// owning threads).
	ChunkElems uint32
	Args       []replyArg
}

type replyArg struct {
	Dir    Dir
	Length int
}

// encodeReplyPrefix and encodeReplyArg write the reply header piece by piece,
// so processCall renders it from the argument sequences themselves.
func encodeReplyPrefix(e *cdr.Encoder, scalars []byte, chunkElems, nargs int) {
	e.WriteOctets(scalars)
	e.WriteULong(uint32(chunkElems))
	e.WriteULong(uint32(nargs))
}

func encodeReplyArg(e *cdr.Encoder, dir Dir, length int) {
	e.WriteEnum(uint32(dir))
	e.WriteULongLong(uint64(length))
}

// decodeReplyHeader reads a reply extension, outside input to the client. What
// the client asked for decides what it accepts: offered is the
// ResultChunkElems of its request, direct says the request was multi-port. A
// reply may stream only if the client offered to take a stream, and only in
// the chunk size chunkElemsFor derives from the offer and the reply's own
// lengths — the client waits for exactly that schedule, so anything else would
// leave it waiting on a sink nobody fills. It stops at the header's end: what
// follows in the reply is checkSteps' and the walk's.
func decodeReplyHeader(d *cdr.Decoder, offered int, direct bool) (*replyHeader, error) {
	var h replyHeader
	var err error
	if h.Scalars, err = d.ReadOctets(); err != nil {
		return nil, fmt.Errorf("%w: reply scalars: %v", ErrBadHeader, err)
	}
	if h.ChunkElems, err = d.ReadULong(); err != nil {
		return nil, fmt.Errorf("%w: reply chunk elems: %v", ErrBadHeader, err)
	}
	if h.ChunkElems > 1<<30 || (h.ChunkElems != 0 && (offered == 0 || direct)) {
		return nil, fmt.Errorf("%w: reply streams in chunks of %d, offered %d", ErrBadHeader, h.ChunkElems, offered)
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("%w: reply arg count: %v", ErrBadHeader, err)
	}
	if n > 1<<12 {
		return nil, fmt.Errorf("%w: %d reply args", ErrBadHeader, n)
	}
	h.Args = make([]replyArg, n)
	for i := range h.Args {
		a := &h.Args[i]
		dir, err := d.ReadEnum()
		if err != nil {
			return nil, fmt.Errorf("%w: reply arg %d dir: %v", ErrBadHeader, i, err)
		}
		if dir > uint32(InOut) {
			return nil, fmt.Errorf("%w: reply arg %d dir %d", ErrBadHeader, i, dir)
		}
		a.Dir = Dir(dir)
		length, err := d.ReadULongLong()
		if err != nil {
			return nil, fmt.Errorf("%w: reply arg %d length: %v", ErrBadHeader, i, err)
		}
		if length > 1<<40 {
			return nil, fmt.Errorf("%w: reply arg %d length %d", ErrBadHeader, i, length)
		}
		a.Length = int(length)
	}
	if h.ChunkElems != 0 {
		want, err := chunkElemsFor(offered, 1, len(h.Args), func(i int) (int, int) { return 0, h.resultLen(i) })
		if err != nil || int(h.ChunkElems) != want {
			return nil, fmt.Errorf("%w: reply streams in chunks of %d, its lengths make it %d", ErrBadHeader, h.ChunkElems, want)
		}
	}
	return &h, nil
}

// resultLen is the length argument i contributes to the reply leg: none for an
// In argument.
func (h *replyHeader) resultLen(i int) int {
	if h.Args[i].Dir == In {
		return 0
	}
	return h.Args[i].Length
}
