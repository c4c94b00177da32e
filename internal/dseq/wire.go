package dseq

import (
	"fmt"

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
	// MarshalRangeTo renders local elements [off, off+n) as one chunk payload
	// appended to dst, whose alignment origin must be its current position (a
	// fresh or Reset encoder): the local half of GatherMarshalRangeTo, so a
	// caller marshals into the bytes it will send. It compresses with the first
	// codec of mask that applies to the element type; mask 0, an element type
	// without a block codec and incompressible or short ranges all give the raw
	// chunk encoding. UnmarshalRange tells the two apart by itself.
	MarshalRangeTo(off, n int, mask uint8, dst *cdr.Encoder) error
	// UnmarshalRange stores a chunk payload at local offset off.
	UnmarshalRange(off int, payload []byte) error
	// ResizeAlloc resets the sequence to a new length using its spec (Block
	// when unset), discarding contents: every element reads zero afterwards.
	// A rank whose element count is unchanged keeps (and clears) its local
	// storage, so slices taken from LocalData before the call alias the new
	// contents. Not collective: every rank must call it with the same length.
	ResizeAlloc(length int) error
	StreamTransferable
}

// MarshalRangeTo implements Transferable.
func (s *Seq[T]) MarshalRangeTo(off, n int, mask uint8, dst *cdr.Encoder) error {
	if off < 0 || n < 0 || off+n > len(s.local) {
		return fmt.Errorf("%w: local range [%d,%d) of %d", ErrIndex, off, off+n, len(s.local))
	}
	marshalChunkZInto(s.codec, dst, s.local[off:off+n], mask)
	return nil
}

// MarshalRangeZ is MarshalRangeTo returning the chunk as a freshly allocated
// payload. Not part of Transferable: like MarshalRange, GatherMarshalRange and
// GatherMarshalRangeZ it stays a method of *Seq only because bench/ladder.go
// calls them; the transfer engines marshal into the encoder they send from.
func (s *Seq[T]) MarshalRangeZ(off, n int, mask uint8) ([]byte, error) {
	e := cdr.NewEncoder(cdr.NativeOrder)
	if err := s.MarshalRangeTo(off, n, mask, e); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// Spec returns the sequence's distribution law (nil if the layout was
// explicit).
func (s *Seq[T]) Spec() dist.Spec { return s.spec }

// ElemName implements Transferable.
func (s *Seq[T]) ElemName() string { return s.codec.Name }

// MarshalRange is MarshalRangeZ without compression (see there for why it stays).
func (s *Seq[T]) MarshalRange(off, n int) ([]byte, error) { return s.MarshalRangeZ(off, n, 0) }

// UnmarshalRange implements Transferable. It decodes straight into local
// storage at off — no intermediate slice — and never retains payload, so a
// chunk backed by a borrowed transport buffer may be released as soon as
// this returns.
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
	if s.bySpec && length == s.layout.Length {
		clear(s.local)
		return nil
	}
	spec := s.spec
	if spec == nil {
		spec = dist.Block{}
	}
	layout, err := spec.Layout(length, s.comm.Size())
	if err != nil {
		return err
	}
	s.layout, s.bySpec = layout, true
	if n := layout.Count(s.comm.Rank()); n == len(s.local) {
		clear(s.local)
	} else {
		s.local = make([]T, n)
	}
	return nil
}
