// Package dseq implements the PARDIS distributed sequence (paper §2.2): a
// generalization of the CORBA sequence whose elements are distributed over
// the address spaces of an SPMD application's computing threads according to
// a distribution template.
//
// A Seq is an SPMD object in the small: every computing thread holds one
// *Seq value for the same logical sequence, created collectively. Methods
// marked "collective" must be invoked by all threads in the same order —
// this is the mapping the paper describes ("it is assumed that most
// invocations of the methods on the sequence will be SPMD-style, that is
// they will be called collectively by all the computing threads"). Local
// access (LocalData, LocalLen) is thread-private, matching the paper's
// intent that the sequence is "a container for data", convertible to and
// from the programmer's own memory management scheme.
package dseq

import (
	"errors"
	"fmt"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/rts"
)

// Errors reported by this package.
var (
	ErrIndex  = errors.New("dseq: index out of range")
	ErrLayout = errors.New("dseq: layout inconsistency")
)

// Seq is one computing thread's view of a distributed sequence of T.
type Seq[T any] struct {
	comm   *rts.Comm
	codec  Codec[T]
	spec   dist.Spec
	layout dist.Layout
	// bySpec: layout is what spec (Block when nil) lays layout.Length out as,
	// so a ResizeAlloc to that length has nothing to recompute.
	bySpec bool
	local  []T
	// own is the storage the sequence allocated itself last, local or not
	// (SetLocal): what Reset, and ResizeAlloc of an empty rank, reuse.
	own []T
	// prev is the spec-derived layout the last relayout replaced, of prevSpec
	// (nil: none): an out argument, empty and then sized on every call, lays
	// out neither length again.
	prev     dist.Layout
	prevSpec dist.Spec
	pieces   [][]byte // scatterRangeRoot's per-rank table, cleared after each scatter
}

// New collectively creates a zero-valued sequence of the given length
// distributed per spec (nil means the default uniform blockwise
// distribution, as the paper specifies for unset templates). All threads
// must pass equal arguments.
func New[T any](comm *rts.Comm, codec Codec[T], length int, spec dist.Spec) (*Seq[T], error) {
	s := &Seq[T]{comm: comm, codec: codec}
	if err := s.Reset(length, spec); err != nil {
		return nil, err
	}
	return s, nil
}

// FromLocal is the conversion constructor: each thread contributes its own
// slice, adopted without copying ("allows the programmer to create a
// sequence based on his or her memory management scheme"). The resulting
// layout assigns contiguous blocks in rank order sized by each contribution.
// Collective.
func FromLocal[T any](comm *rts.Comm, codec Codec[T], local []T) (*Seq[T], error) {
	// Exchange local lengths to agree on the layout.
	lens, err := comm.Allgather(rts.Int64sToBytes([]int64{int64(len(local))}))
	if err != nil {
		return nil, err
	}
	ivs := make([][]dist.Interval, comm.Size())
	off := 0
	for r, b := range lens {
		v, err := rts.BytesToInt64s(b)
		if err != nil {
			return nil, err
		}
		n := int(v[0])
		if n > 0 {
			ivs[r] = []dist.Interval{{Start: off, Len: n}}
		}
		off += n
	}
	layout := dist.Layout{Length: off, Ranks: comm.Size(), Intervals: ivs}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	return &Seq[T]{comm: comm, codec: codec, layout: layout, local: local}, nil
}

// Comm returns the communicator the sequence lives on.
func (s *Seq[T]) Comm() *rts.Comm { return s.comm }

// Codec returns the element codec.
func (s *Seq[T]) Codec() Codec[T] { return s.codec }

// Len returns the global length.
func (s *Seq[T]) Len() int { return s.layout.Length }

// Layout returns the current layout.
func (s *Seq[T]) Layout() dist.Layout { return s.layout }

// LocalData returns this thread's elements without copying; mutations are
// visible to the sequence ("local access operations can be used to convert a
// sequence to the programmer's memory management scheme").
func (s *Seq[T]) LocalData() []T { return s.local }

// LocalLen returns the number of locally owned elements.
func (s *Seq[T]) LocalLen() int { return len(s.local) }

// SetLocal replaces this thread's local storage; the slice length must
// match the layout's count for this rank.
func (s *Seq[T]) SetLocal(data []T) error {
	if len(data) != s.layout.Count(s.comm.Rank()) {
		return fmt.Errorf("%w: %d elements for a rank owning %d", ErrLayout, len(data), s.layout.Count(s.comm.Rank()))
	}
	s.local = data
	return nil
}

// At returns element i with location transparency (the paper's operator[]).
// Collective: the owner broadcasts the value to all threads.
func (s *Seq[T]) At(i int) (T, error) {
	var zero T
	owner, localIdx, err := s.layout.Owner(i)
	if err != nil {
		return zero, fmt.Errorf("%w: %d (len %d)", ErrIndex, i, s.layout.Length)
	}
	var payload []byte
	if s.comm.Rank() == owner {
		payload = MarshalChunk(s.codec, []T{s.local[localIdx]})
	}
	payload, err = s.comm.Bcast(owner, payload)
	if err != nil {
		return zero, err
	}
	vals, err := UnmarshalChunk(s.codec, payload)
	if err != nil {
		return zero, err
	}
	if len(vals) != 1 {
		return zero, fmt.Errorf("%w: broadcast %d values for one element", ErrLayout, len(vals))
	}
	return vals[0], nil
}

// Set stores v at global index i. Collective (all threads must call; only
// the owner writes).
func (s *Seq[T]) Set(i int, v T) error {
	owner, localIdx, err := s.layout.Owner(i)
	if err != nil {
		return fmt.Errorf("%w: %d (len %d)", ErrIndex, i, s.layout.Length)
	}
	if s.comm.Rank() == owner {
		s.local[localIdx] = v
	}
	// Order Set against subsequent collective reads.
	return s.comm.Barrier()
}

// FillFunc sets every locally owned element to f(globalIndex). Local, not
// collective.
func (s *Seq[T]) FillFunc(f func(global int) T) {
	off := 0
	for _, iv := range s.layout.Intervals[s.comm.Rank()] {
		for j := 0; j < iv.Len; j++ {
			s.local[off+j] = f(iv.Start + j)
		}
		off += iv.Len
	}
}

// Collect gathers the full sequence in global order at every thread.
// Collective; intended for results inspection and tests, not the transfer
// hot path.
func (s *Seq[T]) Collect() ([]T, error) {
	chunks, err := s.comm.Allgather(MarshalChunk(s.codec, s.local))
	if err != nil {
		return nil, err
	}
	full := make([]T, s.layout.Length)
	for r, chunk := range chunks {
		vals, err := UnmarshalChunk(s.codec, chunk)
		if err != nil {
			return nil, err
		}
		if len(vals) != s.layout.Count(r) {
			return nil, fmt.Errorf("%w: rank %d sent %d of %d elements", ErrLayout, r, len(vals), s.layout.Count(r))
		}
		off := 0
		for _, iv := range s.layout.Intervals[r] {
			copy(full[iv.Start:iv.End()], vals[off:off+iv.Len])
			off += iv.Len
		}
	}
	return full, nil
}

// Redistribute collectively reshapes the sequence to a new distribution
// ("the programmer can use the redistribute method to redistribute elements
// of a sequence whose distribution is not preset"). Data moves by the
// minimal plan through an all-to-all exchange.
func (s *Seq[T]) Redistribute(newSpec dist.Spec) error {
	if newSpec == nil {
		newSpec = dist.Block{}
	}
	newLayout, err := newSpec.Layout(s.layout.Length, s.comm.Size())
	if err != nil {
		return err
	}
	if err := s.redistributeTo(newLayout); err != nil {
		return err
	}
	s.spec, s.bySpec = newSpec, true
	return nil
}

func (s *Seq[T]) redistributeTo(newLayout dist.Layout) error {
	if newLayout.Ranks != s.comm.Size() {
		return fmt.Errorf("%w: target layout has %d ranks", ErrLayout, newLayout.Ranks)
	}
	moves, err := dist.Plan(s.layout, newLayout)
	if err != nil {
		return err
	}
	me := s.comm.Rank()
	// Group my outbound moves by destination; local moves bypass the
	// exchange. A destination may receive several moves from me; they are
	// bundled as (dstOff, elements) pairs behind a move count.
	newLocal := make([]T, newLayout.Count(me))
	byDst := make([][]dist.Move, s.comm.Size())
	for _, m := range moves {
		if m.SrcRank != me {
			continue
		}
		if m.DstRank == me {
			copy(newLocal[m.DstOff:m.DstOff+m.Len], s.local[m.SrcOff:m.SrcOff+m.Len])
			continue
		}
		byDst[m.DstRank] = append(byDst[m.DstRank], m)
	}
	parts := make([][]byte, s.comm.Size())
	for r, ms := range byDst {
		if len(ms) == 0 {
			continue
		}
		e := cdr.NewEncoder(cdr.NativeOrder)
		e.WriteOctet(byte(cdr.NativeOrder))
		e.WriteULong(uint32(len(ms)))
		for _, m := range ms {
			e.WriteULongLong(uint64(m.DstOff))
			s.codec.EncodeSlice(e, s.local[m.SrcOff:m.SrcOff+m.Len])
		}
		parts[r] = e.Bytes()
	}
	recvd, err := s.comm.Alltoall(parts)
	if err != nil {
		return err
	}
	for src, payload := range recvd {
		if src == me || len(payload) == 0 {
			continue
		}
		if payload[0] > 1 {
			return fmt.Errorf("%w: bad exchange flag from rank %d", ErrLayout, src)
		}
		d := cdr.NewDecoder(payload, cdr.ByteOrder(payload[0]))
		if _, err := d.ReadOctet(); err != nil {
			return err
		}
		n, err := d.ReadULong()
		if err != nil {
			return err
		}
		for i := uint32(0); i < n; i++ {
			dstOff, err := d.ReadULongLong()
			if err != nil {
				return err
			}
			vals, err := s.codec.DecodeSlice(d)
			if err != nil {
				return err
			}
			if int(dstOff)+len(vals) > len(newLocal) {
				return fmt.Errorf("%w: move [%d,%d) outside %d local elements", ErrLayout, dstOff, int(dstOff)+len(vals), len(newLocal))
			}
			copy(newLocal[dstOff:], vals)
		}
	}
	s.layout, s.bySpec = newLayout, false
	s.local, s.own = newLocal, newLocal
	return nil
}

// SetLen collectively resizes the sequence, with the paper's semantics: "if
// a sequence is shrunk, the data above the length value will be discarded,
// if a sequence is lengthened, new elements will be added to the ownership
// of the computing thread which owned the last elements of the old
// sequence." New elements are zero values.
func (s *Seq[T]) SetLen(n int) error {
	if n < 0 {
		return fmt.Errorf("%w: negative length %d", ErrIndex, n)
	}
	switch {
	case n == s.layout.Length:
		return nil
	case n < s.layout.Length:
		return s.shrink(n)
	default:
		return s.grow(n)
	}
}

func (s *Seq[T]) shrink(n int) error {
	me := s.comm.Rank()
	newIvs := make([][]dist.Interval, s.layout.Ranks)
	for r, ivs := range s.layout.Intervals {
		for _, iv := range ivs {
			if iv.Start >= n {
				continue
			}
			kept := iv
			if kept.End() > n {
				kept.Len = n - kept.Start
			}
			newIvs[r] = append(newIvs[r], kept)
		}
	}
	// Rebuild local data: keep elements whose global index survives, in
	// local order.
	var newLocal []T
	off := 0
	for _, iv := range s.layout.Intervals[me] {
		keep := 0
		if iv.Start < n {
			keep = min(iv.Len, n-iv.Start)
		}
		newLocal = append(newLocal, s.local[off:off+keep]...)
		off += iv.Len
	}
	s.layout, s.bySpec = dist.Layout{Length: n, Ranks: s.layout.Ranks, Intervals: newIvs}, false
	s.local, s.own = newLocal, newLocal
	if err := s.layout.Validate(); err != nil {
		return err
	}
	return nil
}

func (s *Seq[T]) grow(n int) error {
	me := s.comm.Rank()
	old := s.layout.Length
	// Find the owner of the last element; an empty sequence grows on the
	// first thread.
	owner := 0
	if old > 0 {
		var err error
		owner, _, err = s.layout.Owner(old - 1)
		if err != nil {
			return err
		}
	}
	newIvs := make([][]dist.Interval, s.layout.Ranks)
	for r, ivs := range s.layout.Intervals {
		newIvs[r] = append([]dist.Interval(nil), ivs...)
	}
	ext := dist.Interval{Start: old, Len: n - old}
	if k := len(newIvs[owner]); k > 0 && newIvs[owner][k-1].End() == old {
		newIvs[owner][k-1].Len += ext.Len
	} else {
		newIvs[owner] = append(newIvs[owner], ext)
	}
	if me == owner {
		s.local = append(s.local, make([]T, n-old)...)
	}
	s.layout, s.bySpec = dist.Layout{Length: n, Ranks: s.layout.Ranks, Intervals: newIvs}, false
	return s.layout.Validate()
}
