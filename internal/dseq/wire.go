package dseq

import (
	"fmt"
	"slices"

	"repro/internal/cdr"
	"repro/internal/dist"
)

// This file is the bridge between distributed sequences and the PARDIS
// transfer engines (internal/core). The engines are element-type agnostic:
// they manipulate sequences through the Transferable view below, moving
// opaque marshalled chunks whose encoding the sequence's codec owns.

// Transferable is the engine-facing view of a distributed sequence.
// *Seq[T] implements it for every element type.
type Transferable interface {
	// ElemName names the element type for header validation ("double"...).
	ElemName() string
	// Len returns the global length.
	Len() int
	// Layout returns the current layout.
	Layout() dist.Layout
	// Spec returns the distribution law, or nil when the layout was set
	// explicitly.
	Spec() dist.Spec
	// MarshalStepTo renders the elements step st takes from this thread — its
	// pieces' source ranges, in plan order — as one chunk payload appended to
	// dst, whose alignment origin must be its current position (a fresh or
	// Reset encoder): the local half of GatherMarshalRangeTo, so a caller
	// marshals into the bytes it will send. It compresses with the first codec
	// of mask that applies to the element type; mask 0, an element type without
	// a block codec and incompressible or short steps all give the raw chunk
	// encoding. UnmarshalStep tells the two apart by itself.
	MarshalStepTo(st dist.Step, mask uint8, dst *cdr.Encoder) error
	// UnmarshalStep stores a chunk payload of exactly step st's elements at its
	// pieces' destination ranges.
	UnmarshalStep(st dist.Step, payload []byte) error
	// ResizeAlloc resets the sequence to a new length using its spec (Block
	// when unset), discarding contents: every element reads zero afterwards.
	// A rank whose element count is unchanged keeps (and clears) its local
	// storage, so slices taken from LocalData before the call alias the new
	// contents; an empty rank grows into the storage the sequence allocated
	// itself when that is large enough. Not collective: every rank must call
	// it with the same length.
	ResizeAlloc(length int) error
	// Reset makes the sequence what New would make of length and spec (nil:
	// Block) on the storage it allocated itself, grown only past its capacity:
	// storage adopted through SetLocal or FromLocal is let go unwritten. The
	// length and spec it has, or had before its last relayout, allocate
	// nothing. Not collective: every rank must pass the same arguments.
	Reset(length int, spec dist.Spec) error
	StreamTransferable
}

// MarshalStepTo implements Transferable.
func (s *Seq[T]) MarshalStepTo(st dist.Step, mask uint8, dst *cdr.Encoder) error {
	var sb [segsInline]rangeSeg
	return s.marshalSegs(stepSegs(sb[:0], st, true), mask, dst)
}

// UnmarshalStep implements Transferable. It never retains payload.
func (s *Seq[T]) UnmarshalStep(st dist.Step, payload []byte) error {
	var sb [segsInline]rangeSeg
	return s.storeSegs(stepSegs(sb[:0], st, false), payload)
}

// stepSegs appends step st's pieces on one side — the source (src) or the
// destination — to buf as local segments, in plan order, a piece that starts
// where the one before it ends joining it: a fine plan's pieces are one segment
// on a side whose layout keeps them together.
func stepSegs(buf []rangeSeg, st dist.Step, src bool) []rangeSeg {
	st.Pieces(func(srcOff, dstOff, n int) {
		off := dstOff
		if src {
			off = srcOff
		}
		if k := len(buf) - 1; k >= 0 && buf[k].localOff+buf[k].n == off {
			buf[k].n += n
		} else {
			buf = append(buf, rangeSeg{localOff: off, n: n})
		}
	})
	return buf
}

// MarshalRangeZ renders local elements [off, off+n) as one freshly allocated
// chunk payload, compressed per mask. Not part of Transferable: like
// MarshalRange, UnmarshalRange, GatherMarshalRange and GatherMarshalRangeZ it
// stays a method of *Seq only because bench/ladder.go calls them; the transfer
// engines marshal a step into the encoder they send from.
func (s *Seq[T]) MarshalRangeZ(off, n int, mask uint8) ([]byte, error) {
	if off < 0 || n < 0 || off+n > len(s.local) {
		return nil, fmt.Errorf("%w: local range [%d,%d) of %d", ErrIndex, off, off+n, len(s.local))
	}
	e := cdr.NewEncoder(cdr.NativeOrder)
	marshalChunkZInto(s.codec, e, s.local[off:off+n], mask)
	return e.Bytes(), nil
}

// Spec returns the sequence's distribution law (nil if the layout was
// explicit).
func (s *Seq[T]) Spec() dist.Spec { return s.spec }

// ElemName implements Transferable.
func (s *Seq[T]) ElemName() string { return s.codec.Name }

// MarshalRange is MarshalRangeZ without compression (see there for why it stays).
func (s *Seq[T]) MarshalRange(off, n int) ([]byte, error) { return s.MarshalRangeZ(off, n, 0) }

// UnmarshalRange decodes a chunk payload straight into local storage at off —
// no intermediate slice — and never retains payload (see MarshalRangeZ for why
// it stays).
func (s *Seq[T]) UnmarshalRange(off int, payload []byte) error {
	if off < 0 || off > len(s.local) {
		return fmt.Errorf("%w: chunk offset %d outside %d local elements", ErrIndex, off, len(s.local))
	}
	_, err := UnmarshalChunkInto(s.codec, payload, s.local[off:])
	return err
}

// GatherMarshal collects the whole sequence at root and renders it as one
// chunk payload (nil at other ranks): GatherMarshalRange over [0, Len()) on
// the sequence's own communicator. Collective.
func (s *Seq[T]) GatherMarshal(root int) ([]byte, error) {
	return s.GatherMarshalRange(nil, root, 0, s.layout.Length)
}

// ScatterUnmarshal distributes a whole-sequence chunk payload (significant at
// root) into every rank's local storage: ScatterUnmarshalRange over
// [0, Len()). Collective.
func (s *Seq[T]) ScatterUnmarshal(root int, payload []byte) error {
	return s.ScatterUnmarshalRange(nil, root, 0, s.layout.Length, payload)
}

// ResizeAlloc implements Transferable. A resize to the length the spec already
// laid out — a client's out argument, on every call after the first — keeps the
// layout as well as the storage.
func (s *Seq[T]) ResizeAlloc(length int) error {
	if err := s.relayout(length, s.spec); err != nil {
		return err
	}
	switch n := s.layout.Count(s.comm.Rank()); {
	case n == len(s.local):
		clear(s.local)
	case len(s.local) == 0:
		s.local = s.ownStorage(n)
	default: // a slice taken from LocalData keeps the old contents
		s.own = make([]T, n)
		s.local = s.own
	}
	return nil
}

// Reset implements Transferable.
func (s *Seq[T]) Reset(length int, spec dist.Spec) error {
	if err := s.relayout(length, spec); err != nil {
		return err
	}
	s.local = s.ownStorage(s.layout.Count(s.comm.Rank()))
	return nil
}

// ownStorage returns n zeroed elements of the storage the sequence allocated
// itself, allocating only past its capacity.
func (s *Seq[T]) ownStorage(n int) []T {
	if cap(s.own) < n {
		s.own = make([]T, n)
		return s.own
	}
	s.own = s.own[:n]
	clear(s.own)
	return s.own
}

// relayout lays the sequence out as spec (Block when nil) lays out length,
// keeping the current layout or taking back the one it replaced last when
// either is that.
func (s *Seq[T]) relayout(length int, spec dist.Spec) error {
	if spec == nil {
		spec = dist.Block{}
	}
	if s.bySpec && length == s.layout.Length && sameSpec(spec, s.spec) {
		return nil
	}
	layout := s.prev
	if s.prevSpec == nil || length != layout.Length || !sameSpec(spec, s.prevSpec) {
		var err error
		if layout, err = spec.Layout(length, s.comm.Size()); err != nil {
			return err
		}
	}
	if s.bySpec {
		s.prev, s.prevSpec = s.layout, s.spec
	}
	s.layout, s.spec, s.bySpec = layout, spec, true
	return nil
}

// sameSpec reports whether a and b are one law. Proportions, whose ratio is a
// slice, is the one spec == cannot compare.
func sameSpec(a, b dist.Spec) bool {
	if p, ok := a.(dist.Proportions); ok {
		q, ok := b.(dist.Proportions)
		return ok && slices.Equal(p.P, q.P)
	}
	return a == b
}
