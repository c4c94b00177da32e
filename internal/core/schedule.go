package core

import "repro/internal/dist"

// The chunk schedule: every bulk transfer this package runs — a centralized
// leg through the communicating threads, a direct leg between the owning
// threads, a resize between two epochs — is a list of moves cut into steps of
// at most ce elements, walked in order by both ends. A centralized leg is the
// one-move plan 0 → 0 over the whole argument, offsets global — cut into frames
// or, placed in the message, left whole (first); a direct leg is dist.Plan
// between the two layouts, offsets local; a resize is dist.Diff's two lists.
// Both ends derive the schedule from what the header
// (or the old epoch) tells them, so no per-chunk control traffic is needed,
// and this file is the only place a range is cut into chunks.

// step is one chunk of a schedule: n elements from thread src's offset srcOff
// to thread dst's offset dstOff. last marks the final chunk of its move.
type step struct {
	src, dst, srcOff, dstOff, n int
	last                        bool
}

// schedule is a cursor over the steps of moves in chunks of ce ≥ 1 elements. It
// is a value: kept on its walker's stack, and it allocates nothing.
type schedule struct {
	moves  []dist.Move
	ce     int
	i, off int // the move the next step is cut from, and how much of it is cut
}

// next cuts the next step, in the order of the moves; an empty move has none.
func (s *schedule) next() (step, bool) {
	for ; s.i < len(s.moves); s.i, s.off = s.i+1, 0 {
		m := &s.moves[s.i]
		n := min(m.Len-s.off, s.ce)
		if n <= 0 {
			continue
		}
		st := step{src: m.SrcRank, dst: m.DstRank, srcOff: m.SrcOff + s.off, dstOff: m.DstOff + s.off, n: n, last: s.off+n == m.Len}
		s.off += n
		return st, true
	}
	return step{}, false
}

// first starts the walk of a centralized leg's one-move plan. Framed (ce ≥ 1)
// the first step is next's. Placed in the message (ce 0) the whole argument is
// the one step — an empty argument's too: the message holds a payload per
// argument the leg carries — and next then finds nothing left to cut.
func (s *schedule) first() (step, bool) {
	if s.ce == 0 {
		return step{n: s.moves[0].Len, last: true}, true
	}
	return s.next()
}

// chunkCount is how many steps next cuts a move of length elements into.
func chunkCount(length, ce int) int {
	if length <= 0 {
		return 0
	}
	return (length + ce - 1) / ce
}
