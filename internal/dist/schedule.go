package dist

// The chunk schedule: every bulk transfer in this module — a centralized leg
// through the communicating threads, a direct leg between the owning threads,
// a resize between two epochs, and the simulated invocations of internal/exp
// — is a list of moves cut into steps of at most CE elements, walked in order
// by both ends. A centralized leg is the one-move plan 0 → 0 over the whole
// argument, offsets global — cut into frames or, placed in the message, left
// whole (First); a direct leg is Plan between the two layouts, offsets local;
// a resize is Diff's two lists. Both ends derive the schedule from what the
// header (or the old epoch) tells them, so no per-chunk control traffic is
// needed, and this file is the only place a range is cut into chunks.

// Step is one chunk of a schedule: N elements from thread Src's offset SrcOff
// to thread Dst's offset DstOff. Last marks the final chunk of its move.
type Step struct {
	Src, Dst, SrcOff, DstOff, N int
	Last                        bool
}

// Schedule is a cursor over the steps of Moves in chunks of CE ≥ 1 elements. It
// is a value: kept on its walker's stack, and it allocates nothing.
type Schedule struct {
	Moves  []Move
	CE     int
	i, off int // the move the next step is cut from, and how much of it is cut
}

// Next cuts the next step, in the order of the moves; an empty move has none.
func (s *Schedule) Next() (Step, bool) {
	for ; s.i < len(s.Moves); s.i, s.off = s.i+1, 0 {
		m := &s.Moves[s.i]
		n := min(m.Len-s.off, s.CE)
		if n <= 0 {
			continue
		}
		st := Step{Src: m.SrcRank, Dst: m.DstRank, SrcOff: m.SrcOff + s.off, DstOff: m.DstOff + s.off, N: n, Last: s.off+n == m.Len}
		s.off += n
		return st, true
	}
	return Step{}, false
}

// First starts the walk of a centralized leg's one-move plan. Framed (CE ≥ 1)
// the first step is Next's. Placed in the message (CE 0) the whole argument is
// the one step — an empty argument's too: the message holds a payload per
// argument the leg carries — and Next then finds nothing left to cut.
func (s *Schedule) First() (Step, bool) {
	if s.CE == 0 {
		return Step{N: s.Moves[0].Len, Last: true}, true
	}
	return s.Next()
}

// ChunkCount is how many steps Next cuts a move of length elements into.
func ChunkCount(length, ce int) int {
	if length <= 0 {
		return 0
	}
	return (length + ce - 1) / ce
}
