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
// every index exactly once. It merges the ranks' lists, keeping the ranks with
// intervals left in a heap on their next start — n·log(ranks) for n intervals,
// where sorting them would cost n·log(n), and a Cyclic{1} layout is an interval
// per element — and every interval must start where the one before it ended.
func (l Layout) Validate() error {
	if l.Length < 0 || l.Ranks < 1 || len(l.Intervals) != l.Ranks {
		return fmt.Errorf("%w: length %d, ranks %d, %d interval lists", ErrBadLayout, l.Length, l.Ranks, len(l.Intervals))
	}
	type head struct{ rank, next int } // a rank and its next interval
	var few [16]head
	h := few[:0]
	if l.Ranks > len(few) {
		h = make([]head, 0, l.Ranks)
	}
	for r, ivs := range l.Intervals {
		if len(ivs) > 0 {
			h = append(h, head{rank: r})
		}
	}
	start := func(i int) int { return l.Intervals[h[i].rank][h[i].next].Start }
	down := func(i int) {
		for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
			if c+1 < len(h) && start(c+1) < start(c) {
				c++
			}
			if start(i) <= start(c) {
				return
			}
			h[i], h[c] = h[c], h[i]
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	off := 0
	for len(h) > 0 {
		top := &h[0]
		iv := l.Intervals[top.rank][top.next]
		if iv.Start != off || iv.Len <= 0 {
			return fmt.Errorf("%w: rank %d interval [%d,%d) where index %d is next", ErrBadLayout, top.rank, iv.Start, iv.End(), off)
		}
		if off, top.next = iv.End(), top.next+1; top.next == len(l.Intervals[top.rank]) {
			h[0], h = h[len(h)-1], h[:len(h)-1]
		}
		down(0)
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

// Plan computes the minimal contiguous moves that transform data laid out as
// src into layout dst: one per overlap of a source rank's interval with a
// destination rank's. Both layouts must partition the same length. The moves
// of one (source, destination) pair come together, the pairs in that order and
// each pair's moves in global order — what a Schedule packs into steps; each
// element appears in exactly one move. Moves with SrcRank == DstRank still
// appear (they are local copies); callers that transfer over a network filter
// or specialize them.
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
	// Intervals that partition one line overlap at most once per interval
	// after the first, so their count bounds the plan's size.
	n := 0
	for _, l := range [2]Layout{src, dst} {
		for _, ivs := range l.Intervals {
			n += len(ivs)
		}
	}
	moves := make([]Move, 0, n)
	for r, a := range src.Intervals {
		for d, b := range dst.Intervals {
			if len(a) == 0 || len(b) == 0 || a[len(a)-1].End() <= b[0].Start || b[len(b)-1].End() <= a[0].Start {
				continue
			}
			// Both lists in order, with the local offset of the interval at
			// hand; whichever ends first moves on.
			for i, j, ai, bj := 0, 0, 0, 0; i < len(a) && j < len(b); {
				x, y := &a[i], &b[j]
				if lo, hi := max(x.Start, y.Start), min(x.End(), y.End()); hi > lo {
					moves = append(moves, Move{SrcRank: r, DstRank: d, SrcOff: ai + lo - x.Start, DstOff: bj + lo - y.Start, Global: lo, Len: hi - lo})
				}
				if x.End() <= y.End() {
					i, ai = i+1, ai+x.Len
				}
				if y.End() <= x.End() {
					j, bj = j+1, bj+y.Len
				}
			}
		}
	}
	return moves, nil
}

// Flow returns the moves from thread src to thread dst of a plan Plan (or
// Diff) listed: one run of it, found by halving.
func Flow(plan []Move, src, dst int) []Move {
	lo := sort.Search(len(plan), func(k int) bool { return plan[k].SrcRank > src || plan[k].SrcRank == src && plan[k].DstRank >= dst })
	n := sort.Search(len(plan)-lo, func(k int) bool { return plan[lo+k].SrcRank != src || plan[lo+k].DstRank != dst })
	return plan[lo : lo+n]
}
