package dseq

import (
	"errors"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/rts"
)

// This file implements the streaming side of the centralized transfer method:
// instead of gathering a whole sequence at the root and shipping it as one
// payload, the transfer engine walks a deterministic chunk schedule and moves
// one global element range at a time, overlapping runtime-system gathers with
// wire transmission. The range methods below are the per-chunk building
// blocks. They take an explicit communicator because pipelined invocations
// run each outstanding request on its own duplicated context (lane) — the
// sequence's own communicator belongs to the application and must not carry
// engine traffic that could interleave between overlapping invocations.

// ErrChunkFailed reports that a peer substituted a fail marker for a chunk:
// an earlier error was detected elsewhere, and the marker kept the collective
// schedule aligned while propagating the failure.
var ErrChunkFailed = errors.New("dseq: peer marked chunk failed")

// FailMarker is a one-byte chunk payload that MarshalChunk can never produce
// (a real chunk starts with a 0/1 byte-order octet). When a participant hits
// an error mid-schedule it must keep calling the range methods for the
// remaining chunks — breaking the loop would desynchronize the collectives —
// and feeds this marker instead of real data, so peers fail fast without
// losing alignment.
var FailMarker = []byte{0xFF}

// IsFailMarker reports whether a chunk payload is the failure marker.
func IsFailMarker(p []byte) bool { return len(p) == 1 && p[0] == 0xFF }

// StreamTransferable is the range-granular half of Transferable: the one
// gather and the one scatter every centralized transfer runs on. A whole
// sequence is the range [0, Len()); the transfer engines pipeline large
// arguments chunk by chunk, gathering chunk k+1 over the runtime system while
// chunk k is on the wire. The methods are collective over c (all of c's
// ranks call them with identical arguments, in the same order); passing a
// nil communicator uses the sequence's own.
type StreamTransferable interface {
	// GatherMarshalRangeTo collects global elements [start, start+n) at root
	// and renders them as one chunk, in global order, straight into root's
	// encoder dst (ignored, and may be nil, at other ranks), grown once to the
	// chunk's size when the element codec is fixed-width. dst's alignment
	// origin must be its current position — a fresh or Reset encoder, or
	// inside cdr.Encoder.BeginOctets — so a caller gathers into the bytes it
	// will send. mask is the sending side's zcodec bitmask for the leg,
	// replicated across the ranks by the transfer engine: zero, or an element
	// type without a block codec, renders raw. Root returns ErrChunkFailed
	// when a contributor fed a fail marker; dst's contents are then
	// unspecified.
	GatherMarshalRangeTo(c *rts.Comm, root, start, n int, mask uint8, dst *cdr.Encoder) error
	// ScatterUnmarshalRange distributes a chunk payload holding global
	// elements [start, start+n) (significant at root, which keeps owning it:
	// nothing retains payload once the call returns) into the owning ranks'
	// local storage. Feeding FailMarker as the payload poisons the chunk:
	// the collective still runs, owners skip the store, and every
	// participant with elements in the range returns ErrChunkFailed.
	ScatterUnmarshalRange(c *rts.Comm, root, start, n int, payload []byte) error
}

// rangeSeg is the intersection of one of a rank's layout intervals with a
// requested global range: n elements at localOff in the rank's local buffer,
// appearing at rangeOff within the range.
type rangeSeg struct {
	localOff int
	rangeOff int
	n        int
}

// segsInline is how many segments a caller's stack buffer holds: a blockwise
// rank has one per chunk, and only finely cyclic layouts spill to the heap.
const segsInline = 8

// rangeSegs appends rank's segments inside [start, start+n) to buf, in global
// order (per-rank interval lists are sorted by start).
func rangeSegs(buf []rangeSeg, l dist.Layout, rank, start, n int) []rangeSeg {
	off := 0
	for _, iv := range l.Intervals[rank] {
		lo := max(iv.Start, start)
		hi := min(iv.End(), start+n)
		if hi > lo {
			buf = append(buf, rangeSeg{
				localOff: off + (lo - iv.Start),
				rangeOff: lo - start,
				n:        hi - lo,
			})
		}
		off += iv.Len
	}
	return buf
}

func segTotal(segs []rangeSeg) int {
	n := 0
	for _, s := range segs {
		n += s.n
	}
	return n
}

// soleOwner returns the rank whose segments alone cover [start, start+n), or
// -1. Shares are disjoint and sum to n, so the first rank holding any of the
// range covers it or nobody does. Every rank derives the same answer from the
// replicated layout.
func (s *Seq[T]) soleOwner(start, n int) int {
	var sb [segsInline]rangeSeg
	for r := 0; r < s.layout.Ranks; r++ {
		if segs := rangeSegs(sb[:0], s.layout, r, start, n); len(segs) > 0 {
			if segTotal(segs) == n {
				return r
			}
			break
		}
	}
	return -1
}

// checkStreamRange validates a range method call. All inputs are replicated
// (layout, start, n agree across ranks), so acceptance is deterministic: an
// error returns at every rank before any communication happens.
func (s *Seq[T]) checkStreamRange(c *rts.Comm, root, start, n int) (*rts.Comm, error) {
	if c == nil {
		c = s.comm
	}
	if c.Size() != s.layout.Ranks || c.Rank() != s.comm.Rank() {
		return nil, fmt.Errorf("%w: streaming comm rank %d/%d against layout for rank %d/%d",
			ErrLayout, c.Rank(), c.Size(), s.comm.Rank(), s.layout.Ranks)
	}
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("%w: root %d of %d ranks", ErrIndex, root, c.Size())
	}
	if start < 0 || n < 0 || start+n > s.layout.Length {
		return nil, fmt.Errorf("%w: chunk [%d,%d) of %d", ErrIndex, start, start+n, s.layout.Length)
	}
	return c, nil
}

// GatherMarshalRange is GatherMarshalRangeTo returning root's chunk as a
// freshly allocated raw payload (nil at other ranks). It and
// GatherMarshalRangeZ are outside StreamTransferable: they stay methods of
// *Seq only because bench/ladder.go calls them (see MarshalRangeZ).
func (s *Seq[T]) GatherMarshalRange(c *rts.Comm, root, start, n int) ([]byte, error) {
	return s.GatherMarshalRangeZ(c, root, start, n, 0)
}

// GatherMarshalRangeZ is GatherMarshalRange with wire compression per mask.
func (s *Seq[T]) GatherMarshalRangeZ(c *rts.Comm, root, start, n int, mask uint8) ([]byte, error) {
	if c == nil {
		c = s.comm
	}
	var e *cdr.Encoder
	if c.Rank() == root {
		e = cdr.NewEncoder(cdr.NativeOrder)
	}
	if err := s.GatherMarshalRangeTo(c, root, start, n, mask, e); err != nil || e == nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// GatherMarshalRangeTo implements StreamTransferable. Compression happens
// exactly where the produced bytes are the final wire payload — a rank whose
// segments cover the whole chunk, or root assembling a multi-contributor
// chunk — so ranks compress their own chunks in parallel, overlapping the
// collectives the same way marshalling does. Intermediate gather parts that
// root will place anyway stay raw: they cross in-process mailboxes, never
// the wire.
func (s *Seq[T]) GatherMarshalRangeTo(c *rts.Comm, root, start, n int, mask uint8, dst *cdr.Encoder) error {
	c, err := s.checkStreamRange(c, root, start, n)
	if err != nil {
		return err
	}
	me := c.Rank()
	var sb [segsInline]rangeSeg
	mySegs := rangeSegs(sb[:0], s.layout, me, start, n)
	sole := s.soleOwner(start, n)

	// Root-owned chunk: the chunk costs no communication at all. With
	// blockwise layouts and chunks no larger than a block this is the common
	// case for root's own share of the sequence; an empty range (a zero-length
	// sequence's whole-range transfer) is the degenerate one.
	if sole == root || n == 0 {
		if me != root {
			return nil
		}
		return s.marshalSegs(mySegs, mask, dst)
	}
	// One other rank holds the whole chunk: it renders the wire payload itself,
	// compressed — ranks compress their own chunks in parallel — into a rented
	// buffer, and forwards it to root, which writes it out verbatim and returns
	// the buffer. No rooted collective: nobody else has anything to add.
	if sole >= 0 {
		var part []byte
		var myErr error
		if me == sole {
			part, myErr = s.rentPart(mySegs, mask)
		}
		if part, err = c.Forward(sole, root, part); err != nil {
			return err
		}
		if me != root {
			return myErr
		}
		if IsFailMarker(part) {
			return fmt.Errorf("%w (rank %d)", ErrChunkFailed, sole)
		}
		dst.WriteRaw(part)
		bufpool.Chunks.Return(part)
		return nil
	}
	if me == root {
		parts, err := c.Gather(root, nil)
		if err != nil {
			return err
		}
		return s.assembleRange(parts, root, start, n, mask, dst)
	}

	// Partial parts are placed at root and travel raw: they cross in-process
	// mailboxes, never the wire.
	var part []byte
	var myErr error
	if len(mySegs) > 0 {
		part, myErr = s.rentPart(mySegs, 0)
	}
	if _, err := c.Gather(root, part); err != nil {
		return err
	}
	return myErr
}

// rentPart renders this rank's segments as one chunk into a rented buffer the
// rank it is sent to returns once it has placed it — or, the segments being
// bad, the fail marker in its place and the reason.
func (s *Seq[T]) rentPart(segs []rangeSeg, mask uint8) ([]byte, error) {
	e := rentEncoder(s.codec.chunkBound(segTotal(segs), mask))
	err := s.marshalSegs(segs, mask, e)
	part := detach(e)
	if err != nil {
		bufpool.Chunks.Return(part)
		return FailMarker, err
	}
	return part, nil
}

// checkSegs validates segments against local storage.
func (s *Seq[T]) checkSegs(segs []rangeSeg) error {
	for _, sg := range segs {
		if sg.localOff < 0 || sg.localOff+sg.n > len(s.local) {
			return fmt.Errorf("%w: segment [%d,%d) of %d local elements", ErrIndex, sg.localOff, sg.localOff+sg.n, len(s.local))
		}
	}
	return nil
}

// marshalSegs appends the given local segments to e as one chunk in global
// order, compressed when mask admits the element codec. Fixed-width elements
// copy straight from local storage to their place in the chunk; others stage
// only when the segments are not one contiguous run.
func (s *Seq[T]) marshalSegs(segs []rangeSeg, mask uint8, e *cdr.Encoder) error {
	if err := s.checkSegs(segs); err != nil {
		return err
	}
	if mask == 0 && s.codec.packed() {
		h := marshalNS.Load()
		defer h.Done(h.Start())
		region := s.codec.beginPacked(e, segTotal(segs))
		for _, sg := range segs {
			region = region[copy(region, s.codec.HostBytes(s.local[sg.localOff:sg.localOff+sg.n])):]
		}
		return nil
	}
	var vals []T
	if len(segs) == 1 {
		vals = s.local[segs[0].localOff : segs[0].localOff+segs[0].n]
	} else {
		vals = make([]T, 0, segTotal(segs))
		for _, sg := range segs {
			vals = append(vals, s.local[sg.localOff:sg.localOff+sg.n]...)
		}
	}
	marshalChunkZInto(s.codec, e, vals, mask)
	return nil
}

// assembleRange merges root's own segments and the gathered per-rank parts
// into one chunk for global range [start, start+n), appended to dst. Root
// only. For a fixed-width codec the chunk is assembled in its final place —
// every share is a byte sub-range of it — and other codecs, and compressed
// chunks, decode into a staging slice and encode once. Every part placed (or
// rejected) goes back to the chunk pool.
func (s *Seq[T]) assembleRange(parts [][]byte, root, start, n int, mask uint8, dst *cdr.Encoder) error {
	// The chunk is built either as bytes in place (region) or as elements to
	// encode afterwards (scratch).
	var region []byte
	var scratch []T
	if mask == 0 && s.codec.packed() {
		region = s.codec.beginPacked(dst, n)
	} else {
		scratch = make([]T, n)
	}
	// Every part is merged, or returned, even after one fails.
	var first error
	for r, part := range parts {
		if err := s.mergePart(part, r, root, start, n, region, scratch); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	if region == nil {
		marshalChunkZInto(s.codec, dst, scratch, mask)
	}
	return nil
}

// mergePart places rank r's share of [start, start+n) — root's own segments,
// or the gathered part, which it then returns to the pool — into the chunk
// under assembly: region's bytes, or the scratch elements when region is nil.
func (s *Seq[T]) mergePart(part []byte, r, root, start, n int, region []byte, scratch []T) error {
	var sb [segsInline]rangeSeg
	segs := rangeSegs(sb[:0], s.layout, r, start, n)
	w := s.codec.ElemWireSize
	put := func(rangeOff int, src []T) {
		if region != nil {
			copy(region[rangeOff*w:], s.codec.HostBytes(src))
		} else {
			copy(scratch[rangeOff:], src)
		}
	}
	if r == root {
		if err := s.checkSegs(segs); err != nil {
			return err
		}
		for _, sg := range segs {
			put(sg.rangeOff, s.local[sg.localOff:sg.localOff+sg.n])
		}
		return nil
	}
	if len(segs) == 0 {
		return nil
	}
	if IsFailMarker(part) {
		return fmt.Errorf("%w (rank %d)", ErrChunkFailed, r)
	}
	// Nothing below keeps a reference into part: elements are copied out.
	defer bufpool.Chunks.Return(part)
	want := segTotal(segs)
	if elems := s.codec.packedElems(part, want); elems != nil && region != nil {
		for _, sg := range segs {
			elems = elems[copy(region[sg.rangeOff*w:(sg.rangeOff+sg.n)*w], elems):]
		}
		return nil
	}
	if len(segs) == 1 && region == nil {
		sg := segs[0]
		m, err := UnmarshalChunkInto(s.codec, part, scratch[sg.rangeOff:sg.rangeOff+sg.n])
		if err == nil && m != sg.n {
			err = fmt.Errorf("%w: rank %d sent %d of %d chunk elements", ErrLayout, r, m, sg.n)
		}
		return err
	}
	vals, err := UnmarshalChunk(s.codec, part)
	if err != nil {
		return err
	}
	if len(vals) != want {
		return fmt.Errorf("%w: rank %d sent %d of %d chunk elements", ErrLayout, r, len(vals), want)
	}
	for _, sg := range segs {
		put(sg.rangeOff, vals[:sg.n])
		vals = vals[sg.n:]
	}
	return nil
}

// ScatterUnmarshalRange implements StreamTransferable.
func (s *Seq[T]) ScatterUnmarshalRange(c *rts.Comm, root, start, n int, payload []byte) error {
	c, err := s.checkStreamRange(c, root, start, n)
	if err != nil {
		return err
	}
	me := c.Rank()
	var sb [segsInline]rangeSeg
	mySegs := rangeSegs(sb[:0], s.layout, me, start, n)
	sole := s.soleOwner(start, n)

	// Root-owned (or empty) chunk: no communication (see GatherMarshalRangeTo).
	// An empty range stores nothing, but the marker still signals failure.
	if sole == root || n == 0 {
		if me != root {
			return nil
		}
		if IsFailMarker(payload) {
			return ErrChunkFailed
		}
		if n == 0 {
			return nil
		}
		return s.storeSegs(mySegs, payload)
	}
	// One other rank owns the whole chunk: root forwards it the payload — the
	// fail marker as it is, anything else through a rented copy, because the
	// mailbox hands slices off without copying and the payload may be a
	// borrowed transport buffer the caller releases after we return.
	if sole >= 0 {
		var piece []byte
		if me == root {
			if piece = FailMarker; !IsFailMarker(payload) {
				piece = append(bufpool.Chunks.Rent(len(payload)), payload...)
			}
		}
		if piece, err = c.Forward(root, sole, piece); err != nil {
			return err
		}
		if me == root && IsFailMarker(payload) {
			return ErrChunkFailed
		}
		if me != sole {
			return nil
		}
		return s.storePiece(mySegs, piece, root)
	}
	if me == root {
		return s.scatterRangeRoot(c, start, n, payload, mySegs)
	}
	piece, err := c.Scatter(root, nil)
	if err != nil {
		return err
	}
	if len(mySegs) == 0 {
		return nil
	}
	return s.storePiece(mySegs, piece, root)
}

// storePiece stores the piece root rendered for this rank and returns its
// rented buffer: storeSegs copies the elements out.
func (s *Seq[T]) storePiece(segs []rangeSeg, piece []byte, root int) error {
	if IsFailMarker(piece) {
		return fmt.Errorf("%w (root %d)", ErrChunkFailed, root)
	}
	err := s.storeSegs(segs, piece)
	bufpool.Chunks.Return(piece)
	return err
}

// scatterRangeRoot splits payload into per-owner pieces, each rendered into a
// rented buffer its owner returns, and scatters them. On a bad payload it
// scatters fail markers instead, keeping the collective aligned while every
// owner learns of the failure.
func (s *Seq[T]) scatterRangeRoot(c *rts.Comm, start, n int, payload []byte, mySegs []rangeSeg) error {
	me := c.Rank()
	pieces := make([][]byte, c.Size())
	scatter := func(cause error) error {
		if _, err := c.Scatter(me, pieces); err != nil {
			return err
		}
		return cause
	}
	// Nothing is rented before the last poison: non-owners ignore the marker.
	poison := func(cause error) error {
		for r := range pieces {
			pieces[r] = FailMarker
		}
		return scatter(cause)
	}
	if IsFailMarker(payload) {
		return poison(ErrChunkFailed)
	}
	if err := s.checkSegs(mySegs); err != nil {
		return poison(err)
	}
	// A fixed-width host-order payload is split as bytes: a remote share is
	// its sub-ranges under a fresh chunk header, root's own share is copied
	// straight out of it. Anything else is decoded once and re-encoded per
	// owner.
	w := s.codec.ElemWireSize
	elems := s.codec.packedElems(payload, n)
	var vals []T
	if elems == nil {
		var err error
		if vals, err = UnmarshalChunk(s.codec, payload); err != nil {
			return poison(err)
		}
		if len(vals) != n {
			return poison(fmt.Errorf("%w: chunk holds %d of %d elements", ErrLayout, len(vals), n))
		}
	}
	for r := range pieces {
		var sb [segsInline]rangeSeg
		segs := rangeSegs(sb[:0], s.layout, r, start, n)
		if r == me || len(segs) == 0 {
			continue
		}
		total := segTotal(segs)
		e := rentEncoder(s.codec.chunkBound(total, 0))
		switch {
		case elems != nil:
			region := s.codec.beginPacked(e, total)
			for _, sg := range segs {
				region = region[copy(region, elems[sg.rangeOff*w:(sg.rangeOff+sg.n)*w]):]
			}
		case len(segs) == 1:
			sg := segs[0]
			marshalChunkInto(s.codec, e, vals[sg.rangeOff:sg.rangeOff+sg.n])
		default:
			piece := make([]T, 0, total)
			for _, sg := range segs {
				piece = append(piece, vals[sg.rangeOff:sg.rangeOff+sg.n]...)
			}
			marshalChunkInto(s.codec, e, piece)
		}
		pieces[r] = detach(e)
	}
	if err := scatter(nil); err != nil {
		return err
	}
	// Root's own share never takes the marshal round trip.
	for _, sg := range mySegs {
		own := s.local[sg.localOff : sg.localOff+sg.n]
		if elems != nil {
			copy(s.codec.HostBytes(own), elems[sg.rangeOff*w:])
		} else {
			copy(own, vals[sg.rangeOff:])
		}
	}
	return nil
}

// storeSegs decodes a chunk piece holding exactly this rank's segments (in
// global order) into local storage. A single contiguous segment decodes in
// place with no staging slice, so a piece backed by a borrowed transport
// buffer is released cleanly — nothing below retains payload.
func (s *Seq[T]) storeSegs(segs []rangeSeg, payload []byte) error {
	if err := s.checkSegs(segs); err != nil {
		return err
	}
	want := segTotal(segs)
	if len(segs) == 1 {
		sg := segs[0]
		m, err := UnmarshalChunkInto(s.codec, payload, s.local[sg.localOff:sg.localOff+sg.n])
		if err != nil {
			return err
		}
		if m != sg.n {
			return fmt.Errorf("%w: chunk piece holds %d of %d elements", ErrLayout, m, sg.n)
		}
		return nil
	}
	vals, err := UnmarshalChunk(s.codec, payload)
	if err != nil {
		return err
	}
	if len(vals) != want {
		return fmt.Errorf("%w: chunk piece holds %d of %d elements", ErrLayout, len(vals), want)
	}
	off := 0
	for _, sg := range segs {
		copy(s.local[sg.localOff:sg.localOff+sg.n], vals[off:off+sg.n])
		off += sg.n
	}
	return nil
}
