package dist

import (
	"fmt"
	"sort"

	"repro/internal/cdr"
)

// Layout is a Spec instantiated for a concrete sequence: an exact partition
// of [0, Length) into per-rank lists of intervals, each list sorted by
// start. Rank r's local buffer stores its intervals concatenated in order,
// so local offset of the j-th element of interval k is the sum of earlier
// interval lengths plus j.
type Layout struct {
	Length    int
	Ranks     int
	Intervals [][]Interval
}

// Validate checks that the layout is an exact partition of [0, Length):
// intervals are positive, per-rank lists are sorted, and together they cover
// every index exactly once.
func (l Layout) Validate() error {
	if l.Length < 0 || l.Ranks < 1 || len(l.Intervals) != l.Ranks {
		return fmt.Errorf("%w: length %d, ranks %d, %d interval lists", ErrBadLayout, l.Length, l.Ranks, len(l.Intervals))
	}
	n := 0
	for _, ivs := range l.Intervals {
		n += len(ivs)
	}
	all := make([]Interval, 0, n)
	for r, ivs := range l.Intervals {
		prev := -1
		for _, iv := range ivs {
			if iv.Len <= 0 || iv.Start < 0 || iv.End() > l.Length {
				return fmt.Errorf("%w: rank %d interval [%d,%d)", ErrBadLayout, r, iv.Start, iv.End())
			}
			if iv.Start <= prev {
				return fmt.Errorf("%w: rank %d intervals not sorted/disjoint", ErrBadLayout, r)
			}
			prev = iv.End() - 1
			all = append(all, iv)
		}
	}
	// Blockwise layouts arrive already ordered by start; sorting lazily
	// keeps validation allocation-light on the data-plane hot path, where
	// Plan validates both layouts of every transfer.
	for i := 1; i < len(all); i++ {
		if all[i].Start < all[i-1].Start {
			sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
			break
		}
	}
	off := 0
	for _, iv := range all {
		if iv.Start != off {
			return fmt.Errorf("%w: gap or overlap at index %d", ErrBadLayout, off)
		}
		off = iv.End()
	}
	if off != l.Length {
		return fmt.Errorf("%w: covers %d of %d elements", ErrBadLayout, off, l.Length)
	}
	return nil
}

// Count returns the number of elements rank r owns.
func (l Layout) Count(r int) int {
	n := 0
	for _, iv := range l.Intervals[r] {
		n += iv.Len
	}
	return n
}

// Counts returns every rank's element count.
func (l Layout) Counts() []int {
	out := make([]int, l.Ranks)
	for r := range out {
		out[r] = l.Count(r)
	}
	return out
}

// Owner returns the rank owning global index i and the index's offset in
// that rank's local buffer.
func (l Layout) Owner(i int) (rank, local int, err error) {
	if i < 0 || i >= l.Length {
		return 0, 0, fmt.Errorf("dist: index %d out of range [0,%d)", i, l.Length)
	}
	for r, ivs := range l.Intervals {
		off := 0
		for _, iv := range ivs {
			if i >= iv.Start && i < iv.End() {
				return r, off + (i - iv.Start), nil
			}
			off += iv.Len
		}
	}
	return 0, 0, fmt.Errorf("%w: index %d unowned", ErrBadLayout, i)
}

// Global returns the global index of rank r's local element li.
func (l Layout) Global(r, li int) (int, error) {
	if r < 0 || r >= l.Ranks {
		return 0, fmt.Errorf("dist: rank %d out of range", r)
	}
	off := 0
	for _, iv := range l.Intervals[r] {
		if li < off+iv.Len {
			return iv.Start + (li - off), nil
		}
		off += iv.Len
	}
	return 0, fmt.Errorf("dist: local index %d out of range for rank %d (%d elements)", li, r, off)
}

// Equal reports whether two layouts assign exactly the same intervals.
func (l Layout) Equal(o Layout) bool {
	if l.Length != o.Length || l.Ranks != o.Ranks {
		return false
	}
	for r := range l.Intervals {
		if len(l.Intervals[r]) != len(o.Intervals[r]) {
			return false
		}
		for k := range l.Intervals[r] {
			if l.Intervals[r][k] != o.Intervals[r][k] {
				return false
			}
		}
	}
	return true
}

// EncodeLayout writes a layout for wire transfer.
func EncodeLayout(e *cdr.Encoder, l Layout) {
	e.WriteULong(uint32(l.Length))
	e.WriteULong(uint32(l.Ranks))
	for _, ivs := range l.Intervals {
		e.WriteULong(uint32(len(ivs)))
		for _, iv := range ivs {
			e.WriteULong(uint32(iv.Start))
			e.WriteULong(uint32(iv.Len))
		}
	}
}

// DecodeLayout reads a layout written by EncodeLayout and validates it.
func DecodeLayout(d *cdr.Decoder) (Layout, error) {
	length, err := d.ReadULong()
	if err != nil {
		return Layout{}, err
	}
	ranks, err := d.ReadULong()
	if err != nil {
		return Layout{}, err
	}
	if ranks == 0 || ranks > 1<<20 {
		return Layout{}, fmt.Errorf("%w: %d ranks", ErrBadLayout, ranks)
	}
	l := Layout{Length: int(length), Ranks: int(ranks), Intervals: make([][]Interval, ranks)}
	// Per-rank lists are views into one flat backing array (blockwise
	// layouts have one interval per rank, so the whole decode costs two
	// allocations instead of one per rank). Full-capacity slicing keeps
	// the views from appending into each other.
	flat := make([]Interval, 0, ranks)
	for r := range l.Intervals {
		n, err := d.ReadULong()
		if err != nil {
			return Layout{}, err
		}
		if n > 1<<24 {
			return Layout{}, fmt.Errorf("%w: rank %d has %d intervals", ErrBadLayout, r, n)
		}
		start := len(flat)
		for k := 0; k < int(n); k++ {
			s, err := d.ReadULong()
			if err != nil {
				return Layout{}, err
			}
			ln, err := d.ReadULong()
			if err != nil {
				return Layout{}, err
			}
			flat = append(flat, Interval{Start: int(s), Len: int(ln)})
		}
		l.Intervals[r] = flat[start:len(flat):len(flat)]
	}
	if err := l.Validate(); err != nil {
		return Layout{}, err
	}
	return l, nil
}

// Move is one contiguous copy in a redistribution plan: Len elements flow
// from SrcRank's local buffer at SrcOff to DstRank's local buffer at DstOff.
// Global identifies the first element's global index (useful for tracing).
type Move struct {
	SrcRank, DstRank int
	SrcOff, DstOff   int
	Global           int
	Len              int
}

// segment is an interval annotated with its owner and local offset.
type segment struct {
	start, length int
	rank, local   int
}

func segments(l Layout) []segment {
	n := 0
	for _, ivs := range l.Intervals {
		n += len(ivs)
	}
	segs := make([]segment, 0, n)
	for r, ivs := range l.Intervals {
		off := 0
		for _, iv := range ivs {
			segs = append(segs, segment{start: iv.Start, length: iv.Len, rank: r, local: off})
			off += iv.Len
		}
	}
	// Blockwise layouts emit segments already ordered by global start;
	// skipping the sort keeps the common Plan call allocation-free apart
	// from the results themselves.
	for i := 1; i < len(segs); i++ {
		if segs[i].start < segs[i-1].start {
			sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
			break
		}
	}
	return segs
}

// Plan computes the minimal contiguous moves that transform data laid out as
// src into layout dst. Both layouts must partition the same length. The
// result is ordered by global index; each element appears in exactly one
// move. Moves with SrcRank == DstRank still appear (they are local copies);
// callers that transfer over a network filter or specialize them.
func Plan(src, dst Layout) ([]Move, error) {
	if err := src.Validate(); err != nil {
		return nil, fmt.Errorf("src: %w", err)
	}
	if err := dst.Validate(); err != nil {
		return nil, fmt.Errorf("dst: %w", err)
	}
	if src.Length != dst.Length {
		return nil, fmt.Errorf("%w: %d vs %d", ErrMismatched, src.Length, dst.Length)
	}
	ss := segments(src)
	ds := segments(dst)
	// Each merge step emits at most one move and retires at least one
	// segment, so len(ss)+len(ds) bounds the plan size.
	moves := make([]Move, 0, len(ss)+len(ds))
	i, j := 0, 0
	for i < len(ss) && j < len(ds) {
		s, d := ss[i], ds[j]
		lo := max(s.start, d.start)
		hi := min(s.start+s.length, d.start+d.length)
		if hi > lo {
			moves = append(moves, Move{
				SrcRank: s.rank, DstRank: d.rank,
				SrcOff: s.local + (lo - s.start),
				DstOff: d.local + (lo - d.start),
				Global: lo,
				Len:    hi - lo,
			})
		}
		// Advance whichever segment ends first.
		if s.start+s.length <= d.start+d.length {
			i++
		}
		if d.start+d.length <= s.start+s.length {
			j++
		}
	}
	return moves, nil
}
