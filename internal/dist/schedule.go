package dist

// The chunk schedule: every bulk transfer in this module — a centralized leg
// through the communicating threads, a direct leg between the owning threads,
// a resize between two epochs, and the simulated invocations of internal/exp
// — is a plan of moves walked in steps by both ends. A step packs up to CE
// elements of the moves of one (source, destination) pair, in plan order, and
// Plan lists a pair's moves together, so a flow — the moves of one pair in one
// plan — is ⌈elements / CE⌉ steps however many moves it has. A centralized leg
// is the one-move plan 0 → 0 over the whole argument, offsets global — cut
// into frames or, placed in the message, left whole (First); a direct leg is
// Plan between the two layouts, offsets local; a resize is Diff's two lists.
// Both ends derive the schedule, and so every step's pieces, from what the
// header (or the old epoch) tells them, so no per-chunk control traffic is
// needed, and this file is the only place a plan is cut into chunks.

// Step is one chunk of a schedule: N elements of the moves from thread Src to
// thread Dst, the first of them at SrcOff and DstOff of the two threads' local
// buffers and the rest where Pieces says. Last marks the final step of its
// flow.
type Step struct {
	Src, Dst, SrcOff, DstOff, N int
	Last                        bool
	moves                       []Move // the plan from the move of the first piece on
	skip                        int    // elements of moves[0] that earlier steps took
}

// Pieces calls f for each contiguous piece of the step, in plan order: n
// elements from the source's local offset srcOff to the destination's dstOff.
func (st Step) Pieces(f func(srcOff, dstOff, n int)) {
	left, skip := st.N, st.skip
	for i := 0; left > 0; i, skip = i+1, 0 {
		m := &st.moves[i]
		if n := min(m.Len-skip, left); n > 0 {
			f(m.SrcOff+skip, m.DstOff+skip, n)
			left -= n
		}
	}
}

// Schedule is a cursor over the steps of Moves in chunks of CE ≥ 1 elements. A
// flow is a run of moves of one pair — an empty move belongs to none and
// breaks none — so a pair whose moves a plan did not list together would be
// several flows. It is a value: kept on its walker's stack, and it allocates
// nothing.
type Schedule struct {
	Moves  []Move
	CE     int
	i, off int // the move the next step starts in, and how much of it is cut
}

// Next cuts the next step.
func (s *Schedule) Next() (Step, bool) {
	s.skipEmpty()
	if s.CE < 1 || s.i == len(s.Moves) {
		return Step{}, false
	}
	m := &s.Moves[s.i]
	st := Step{Src: m.SrcRank, Dst: m.DstRank, SrcOff: m.SrcOff + s.off, DstOff: m.DstOff + s.off, moves: s.Moves[s.i:], skip: s.off}
	for {
		n := min(s.Moves[s.i].Len-s.off, s.CE-st.N)
		st.N, s.off = st.N+n, s.off+n
		if s.off < s.Moves[s.i].Len {
			return st, true // full inside a move
		}
		s.i, s.off = s.i+1, 0
		s.skipEmpty()
		if s.i == len(s.Moves) || s.Moves[s.i].SrcRank != st.Src || s.Moves[s.i].DstRank != st.Dst {
			st.Last = true
			return st, true
		}
		if st.N == s.CE {
			return st, true
		}
	}
}

func (s *Schedule) skipEmpty() {
	for s.i < len(s.Moves) && s.Moves[s.i].Len == 0 {
		s.i++
	}
}

// First starts the walk of a centralized leg's one-move plan. Framed (CE ≥ 1)
// the first step is Next's. Placed in the message (CE 0) the whole argument is
// the one step — an empty argument's too: the message holds a payload per
// argument the leg carries — and Next then finds nothing to cut.
func (s *Schedule) First() (Step, bool) {
	if s.CE == 0 {
		return Step{N: s.Moves[0].Len, Last: true, moves: s.Moves}, true
	}
	return s.Next()
}

// ChunkCount is how many steps Next cuts a flow of length elements into.
func ChunkCount(length, ce int) int {
	if length <= 0 {
		return 0
	}
	return (length + ce - 1) / ce
}
