package dseq

import (
	"errors"
	"fmt"

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
	// GatherMarshalRange collects global elements [start, start+n) at root
	// and renders them as one chunk payload in global order. Non-root ranks
	// receive nil. A returned FailMarker payload (in place of an error's nil)
	// never happens at root — marker propagation is internal — but root
	// returns ErrChunkFailed when a contributor fed one.
	GatherMarshalRange(c *rts.Comm, root, start, n int) ([]byte, error)
	// GatherMarshalRangeTo is GatherMarshalRange rendering the chunk straight
	// into root's encoder dst (ignored, and may be nil, at other ranks),
	// grown once to the chunk's size when the element codec is fixed-width.
	// dst's alignment origin must be its current position — a fresh encoder,
	// or inside cdr.Encoder.BeginOctets — so a caller embedding the chunk in
	// a larger message gathers into the bytes it will send.
	GatherMarshalRangeTo(c *rts.Comm, root, start, n int, dst *cdr.Encoder) error
	// GatherMarshalRangeZ is GatherMarshalRange with wire compression: mask
	// is the connection's negotiated zcodec bitmask, replicated across the
	// ranks by the transfer engine. Mask zero is exactly GatherMarshalRange;
	// element types without a block codec ignore the mask.
	GatherMarshalRangeZ(c *rts.Comm, root, start, n int, mask uint8) ([]byte, error)
	// ScatterUnmarshalRange distributes a chunk payload holding global
	// elements [start, start+n) (significant at root) into the owning ranks'
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

// rangeSegs computes rank's segments inside [start, start+n), in global
// order (per-rank interval lists are sorted by start).
func rangeSegs(l dist.Layout, rank, start, n int) []rangeSeg {
	var segs []rangeSeg
	off := 0
	for _, iv := range l.Intervals[rank] {
		lo := max(iv.Start, start)
		hi := min(iv.End(), start+n)
		if hi > lo {
			segs = append(segs, rangeSeg{
				localOff: off + (lo - iv.Start),
				rangeOff: lo - start,
				n:        hi - lo,
			})
		}
		off += iv.Len
	}
	return segs
}

func segTotal(segs []rangeSeg) int {
	n := 0
	for _, s := range segs {
		n += s.n
	}
	return n
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

// GatherMarshalRange implements StreamTransferable.
func (s *Seq[T]) GatherMarshalRange(c *rts.Comm, root, start, n int) ([]byte, error) {
	return s.gatherRange(c, root, start, n, 0, nil)
}

// GatherMarshalRangeTo implements StreamTransferable.
func (s *Seq[T]) GatherMarshalRangeTo(c *rts.Comm, root, start, n int, dst *cdr.Encoder) error {
	_, err := s.gatherRange(c, root, start, n, 0, dst)
	return err
}

// GatherMarshalRangeZ is GatherMarshalRange with wire compression: mask
// is the connection's negotiated zcodec bitmask (replicated — every rank
// passes the same value, which the transfer engine broadcast alongside
// the chunk schedule). Compression happens exactly where the produced
// bytes are the final wire payload — a rank whose segments cover the
// whole chunk, or root assembling a multi-contributor chunk — so ranks
// compress their own chunks in parallel, overlapping the collectives
// the same way marshalling does. Intermediate gather parts that root
// will decode anyway stay raw: they cross in-process mailboxes, never
// the wire. Mask zero is exactly GatherMarshalRange.
func (s *Seq[T]) GatherMarshalRangeZ(c *rts.Comm, root, start, n int, mask uint8) ([]byte, error) {
	return s.gatherRange(c, root, start, n, mask, nil)
}

// gatherRange is the one gather: root gets the chunk for [start, start+n)
// appended to dst (raw; dst's alignment origin is its current position) or,
// with a nil dst, returned as a payload compressed per mask.
func (s *Seq[T]) gatherRange(c *rts.Comm, root, start, n int, mask uint8, dst *cdr.Encoder) ([]byte, error) {
	c, err := s.checkStreamRange(c, root, start, n)
	if err != nil {
		return nil, err
	}
	me := c.Rank()
	mySegs := rangeSegs(s.layout, me, start, n)
	rootSegs := mySegs
	if me != root {
		rootSegs = rangeSegs(s.layout, root, start, n)
	}

	// Root-owned chunk: every rank derives this from the replicated layout,
	// so the chunk costs no communication at all. With blockwise layouts and
	// chunks no larger than a block this is the common case for root's own
	// share of the sequence; an empty range (a zero-length sequence's
	// whole-range transfer) is the degenerate one.
	if segTotal(rootSegs) == n {
		if me != root {
			return nil, nil
		}
		return s.marshalSegs(mySegs, mask, dst)
	}

	// Root's own segments never take the marshal → mailbox → decode trip:
	// assembleRange copies them in place.
	var mine []byte
	var myErr error
	if me != root && len(mySegs) > 0 {
		// A rank covering the whole chunk produces the wire payload itself
		// (root forwards it verbatim), so it compresses; partial parts are
		// placed or decoded at root and travel raw.
		partMask := uint8(0)
		if segTotal(mySegs) == n {
			partMask = mask
		}
		if mine, myErr = s.marshalSegs(mySegs, partMask, nil); myErr != nil {
			mine = FailMarker
		}
	}
	parts, err := c.Gather(root, mine)
	if err != nil {
		return nil, err
	}
	if me != root {
		return nil, myErr
	}
	return s.assembleRange(parts, root, start, n, mask, dst)
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

// chunkOut picks where a raw chunk is rendered: the caller's encoder, or a
// fresh one whose bytes chunkBytes then returns as the payload.
func chunkOut(dst *cdr.Encoder) *cdr.Encoder {
	if dst != nil {
		return dst
	}
	return cdr.NewEncoder(cdr.NativeOrder)
}

func chunkBytes(e, dst *cdr.Encoder) []byte {
	if dst != nil {
		return nil
	}
	return e.Bytes()
}

// marshalSegs renders the given local segments as one chunk in global order:
// appended to dst, or returned as a payload compressed when mask admits the
// element codec. Fixed-width elements copy straight from local storage to
// their place in the chunk; others stage only when the segments are not one
// contiguous run.
func (s *Seq[T]) marshalSegs(segs []rangeSeg, mask uint8, dst *cdr.Encoder) ([]byte, error) {
	if err := s.checkSegs(segs); err != nil {
		return nil, err
	}
	if mask == 0 && s.codec.packed() {
		e := chunkOut(dst)
		h := marshalNS.Load()
		defer h.Done(h.Start())
		region := s.codec.beginPacked(e, segTotal(segs))
		for _, sg := range segs {
			region = region[copy(region, s.codec.HostBytes(s.local[sg.localOff:sg.localOff+sg.n])):]
		}
		return chunkBytes(e, dst), nil
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
	if mask != 0 {
		return MarshalChunkZ(s.codec, vals, mask), nil
	}
	e := chunkOut(dst)
	marshalChunkInto(s.codec, e, vals)
	return chunkBytes(e, dst), nil
}

// assembleRange merges root's own segments and the gathered per-rank pieces
// into one chunk for global range [start, start+n): appended to dst, or
// returned compressed when mask admits it. Root-only. For a fixed-width
// codec the chunk is assembled in its final place — every share is a byte
// sub-range of it — and other codecs decode into a staging slice and encode
// once.
func (s *Seq[T]) assembleRange(parts [][]byte, root, start, n int, mask uint8, dst *cdr.Encoder) ([]byte, error) {
	type contrib struct {
		rank int
		segs []rangeSeg
	}
	var cs []contrib
	for r := 0; r < s.layout.Ranks; r++ {
		if segs := rangeSegs(s.layout, r, start, n); len(segs) > 0 {
			cs = append(cs, contrib{rank: r, segs: segs})
			if r == root {
				if err := s.checkSegs(segs); err != nil {
					return nil, err
				}
			}
		}
	}
	// A single contributor's piece already is the whole chunk in global
	// order: forward it without a decode/re-encode round trip. (The sole
	// contributor is never root here — a fully root-owned chunk skipped the
	// gather entirely.)
	if len(cs) == 1 {
		part := parts[cs[0].rank]
		if IsFailMarker(part) {
			return nil, fmt.Errorf("%w (rank %d)", ErrChunkFailed, cs[0].rank)
		}
		if dst != nil {
			dst.WriteRaw(part)
			return nil, nil
		}
		return part, nil
	}

	// The chunk is built either as bytes in place (region) or as elements to
	// encode afterwards (scratch); put copies elements to either.
	var (
		region  []byte
		scratch []T
		w       = s.codec.ElemWireSize
		e       *cdr.Encoder
	)
	if mask == 0 {
		e = chunkOut(dst)
	}
	if mask == 0 && s.codec.packed() {
		region = s.codec.beginPacked(e, n)
	} else {
		scratch = make([]T, n)
	}
	put := func(rangeOff int, src []T) {
		if region != nil {
			copy(region[rangeOff*w:], s.codec.HostBytes(src))
		} else {
			copy(scratch[rangeOff:], src)
		}
	}
	merge := func(ct contrib) error {
		if ct.rank == root {
			for _, sg := range ct.segs {
				put(sg.rangeOff, s.local[sg.localOff:sg.localOff+sg.n])
			}
			return nil
		}
		part := parts[ct.rank]
		if IsFailMarker(part) {
			return fmt.Errorf("%w (rank %d)", ErrChunkFailed, ct.rank)
		}
		want := segTotal(ct.segs)
		if elems := s.codec.packedElems(part, want); elems != nil && region != nil {
			for _, sg := range ct.segs {
				elems = elems[copy(region[sg.rangeOff*w:(sg.rangeOff+sg.n)*w], elems):]
			}
			return nil
		}
		if len(ct.segs) == 1 && region == nil {
			sg := ct.segs[0]
			m, err := UnmarshalChunkInto(s.codec, part, scratch[sg.rangeOff:sg.rangeOff+sg.n])
			if err == nil && m != sg.n {
				err = fmt.Errorf("%w: rank %d sent %d of %d chunk elements", ErrLayout, ct.rank, m, sg.n)
			}
			return err
		}
		vals, err := UnmarshalChunk(s.codec, part)
		if err != nil {
			return err
		}
		if len(vals) != want {
			return fmt.Errorf("%w: rank %d sent %d of %d chunk elements", ErrLayout, ct.rank, len(vals), want)
		}
		for _, sg := range ct.segs {
			put(sg.rangeOff, vals[:sg.n])
			vals = vals[sg.n:]
		}
		return nil
	}
	// Contributors fill disjoint parts of the chunk, so large element-wise
	// merges run in parallel; byte placement is a memcpy per share and stays
	// on this goroutine.
	errs := make([]error, len(cs))
	if n >= parallelMinElems && region == nil {
		pfor(len(cs), func(i int) { errs[i] = merge(cs[i]) })
	} else {
		for i := range cs {
			errs[i] = merge(cs[i])
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if mask != 0 {
		return MarshalChunkZ(s.codec, scratch, mask), nil
	}
	if region == nil {
		marshalChunkInto(s.codec, e, scratch)
	}
	return chunkBytes(e, dst), nil
}

// ScatterUnmarshalRange implements StreamTransferable.
func (s *Seq[T]) ScatterUnmarshalRange(c *rts.Comm, root, start, n int, payload []byte) error {
	c, err := s.checkStreamRange(c, root, start, n)
	if err != nil {
		return err
	}
	me := c.Rank()
	mySegs := rangeSegs(s.layout, me, start, n)
	rootSegs := mySegs
	if me != root {
		rootSegs = rangeSegs(s.layout, root, start, n)
	}

	// Root-owned (or empty) chunk: no communication (see gatherRange). An
	// empty range stores nothing, but the marker still signals failure.
	if segTotal(rootSegs) == n {
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

	if me != root {
		chunk, err := c.Scatter(root, nil)
		if err != nil {
			return err
		}
		if len(mySegs) == 0 {
			return nil
		}
		if IsFailMarker(chunk) {
			return fmt.Errorf("%w (root %d)", ErrChunkFailed, root)
		}
		return s.storeSegs(mySegs, chunk)
	}
	return s.scatterRangeRoot(c, start, n, payload, mySegs)
}

// scatterRangeRoot splits payload into per-owner pieces and scatters them.
// On a bad payload it scatters fail markers instead, keeping the collective
// aligned while every owner learns of the failure.
func (s *Seq[T]) scatterRangeRoot(c *rts.Comm, start, n int, payload []byte, mySegs []rangeSeg) error {
	me := c.Rank()
	type contrib struct {
		rank int
		segs []rangeSeg
	}
	var cs []contrib
	for r := 0; r < s.layout.Ranks; r++ {
		if r == me {
			continue
		}
		if segs := rangeSegs(s.layout, r, start, n); len(segs) > 0 {
			cs = append(cs, contrib{rank: r, segs: segs})
		}
	}
	parts := make([][]byte, c.Size())

	poison := func(cause error) error {
		for _, ct := range cs {
			parts[ct.rank] = FailMarker
		}
		if _, err := c.Scatter(me, parts); err != nil {
			return err
		}
		return cause
	}

	if IsFailMarker(payload) {
		return poison(ErrChunkFailed)
	}
	if err := s.checkSegs(mySegs); err != nil {
		return poison(err)
	}
	// A sole remote owner takes the payload verbatim — but through a private
	// copy: the mailbox hands slices off without copying, and the payload
	// may be a borrowed transport buffer the caller releases after we return.
	if len(cs) == 1 && len(mySegs) == 0 && segTotal(cs[0].segs) == n {
		parts[cs[0].rank] = append([]byte(nil), payload...)
		_, err := c.Scatter(me, parts)
		return err
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
	build := func(ct contrib) {
		e := cdr.NewEncoder(cdr.NativeOrder)
		switch {
		case elems != nil:
			region := s.codec.beginPacked(e, segTotal(ct.segs))
			for _, sg := range ct.segs {
				region = region[copy(region, elems[sg.rangeOff*w:(sg.rangeOff+sg.n)*w]):]
			}
		case len(ct.segs) == 1:
			sg := ct.segs[0]
			marshalChunkInto(s.codec, e, vals[sg.rangeOff:sg.rangeOff+sg.n])
		default:
			piece := make([]T, 0, segTotal(ct.segs))
			for _, sg := range ct.segs {
				piece = append(piece, vals[sg.rangeOff:sg.rangeOff+sg.n]...)
			}
			marshalChunkInto(s.codec, e, piece)
		}
		parts[ct.rank] = e.Bytes()
	}
	if n >= parallelMinElems && len(cs) > 1 {
		pfor(len(cs), func(i int) { build(cs[i]) })
	} else {
		for i := range cs {
			build(cs[i])
		}
	}
	if _, err := c.Scatter(me, parts); err != nil {
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
	want := segTotal(segs)
	if len(segs) == 1 {
		sg := segs[0]
		if sg.localOff < 0 || sg.localOff+sg.n > len(s.local) {
			return fmt.Errorf("%w: segment [%d,%d) of %d local elements", ErrIndex, sg.localOff, sg.localOff+sg.n, len(s.local))
		}
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
