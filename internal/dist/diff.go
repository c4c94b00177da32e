package dist

// Diff computes the minimal redistribution between two templates of one
// global length and splits it by whether ownership changes. It is the
// membership-change shape of Plan: when a rank set grows or shrinks, the
// cross list is exactly the point-to-point transfer schedule (every element
// whose owning rank index differs between src and dst, coalesced into
// contiguous moves), and the local list is what minimality keeps off the
// wire — elements whose owner index is unchanged never appear in cross, even
// when their local offset moved.
//
// src and dst may have different rank counts; only the lengths must agree.
// Together the two lists cover every global index exactly once, each list
// pair by pair as Plan lists them.
func Diff(src, dst Layout) (local, cross []Move, err error) {
	moves, err := Plan(src, dst)
	if err != nil {
		return nil, nil, err
	}
	// Count first so each result is one exact allocation.
	nl := 0
	for _, m := range moves {
		if m.SrcRank == m.DstRank {
			nl++
		}
	}
	local = make([]Move, 0, nl)
	cross = make([]Move, 0, len(moves)-nl)
	for _, m := range moves {
		if m.SrcRank == m.DstRank {
			local = append(local, m)
		} else {
			cross = append(cross, m)
		}
	}
	return local, cross, nil
}

// MovedElems sums the element counts of a move list — the wire volume of a
// cross list from Diff.
func MovedElems(moves []Move) int {
	n := 0
	for _, m := range moves {
		n += m.Len
	}
	return n
}
