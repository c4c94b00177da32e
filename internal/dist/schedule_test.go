package dist

import "testing"

// FuzzSchedule walks the plan between two layouts — Block, Cyclic or
// Proportions, of any length over one to eight ranks — in steps of any chunk
// size, and checks that the steps tile every element of the plan exactly
// once, flow by flow in plan order; that each flow — one pair's moves — takes
// ⌈elements / CE⌉ steps, the last of them marked, with the pairs in (source,
// destination) order; and that a step's pieces sum to its N.
func FuzzSchedule(f *testing.F) {
	f.Add(uint16(20000), uint8(2), uint8(2), uint8(1), uint8(0), uint8(1), uint16(8191))
	f.Add(uint16(1000), uint8(3), uint8(2), uint8(2), uint8(1), uint8(5), uint16(6))
	f.Add(uint16(0), uint8(1), uint8(4), uint8(0), uint8(2), uint8(0), uint16(0))
	f.Add(uint16(97), uint8(7), uint8(5), uint8(1), uint8(1), uint8(3), uint16(1))
	f.Fuzz(func(t *testing.T, length uint16, srcRanks, dstRanks, srcKind, dstKind, param uint8, ce uint16) {
		layout := func(kind, ranks uint8) Layout {
			n := 1 + int(ranks)%8
			var spec Spec = Block{}
			switch kind % 3 {
			case 1:
				spec = Cyclic{BlockSize: 1 + int(param)%9}
			case 2:
				p := Proportions{P: make([]int, n)}
				for i := range p.P {
					p.P[i] = (i + int(param)) % 3 // some ranks hold nothing
				}
				p.P[0]++
				spec = p
			}
			l, err := spec.Layout(int(length), n)
			if err != nil {
				t.Fatalf("%v over %d ranks: %v", spec, n, err)
			}
			return l
		}
		plan, err := Plan(layout(srcKind, srcRanks), layout(dstKind, dstRanks))
		if err != nil {
			t.Fatal(err)
		}
		// The plan's elements one by one, in plan order: what the steps must
		// move, in the same order.
		type elem struct{ src, dst, srcOff, dstOff int }
		var want []elem
		for _, m := range plan {
			for k := range m.Len {
				want = append(want, elem{m.SrcRank, m.DstRank, m.SrcOff + k, m.DstOff + k})
			}
		}
		chunk := 1 + int(ce)
		sc := Schedule{Moves: plan, CE: chunk}
		at, steps, flowStart := 0, 0, 0 // elements walked, steps of the open flow, where it began
		prev := Step{Src: -1}
		for st, ok := sc.Next(); ok; st, ok = sc.Next() {
			if st.N < 1 || st.N > chunk {
				t.Fatalf("a step of %d elements in chunks of %d", st.N, chunk)
			}
			if st.Src != prev.Src || st.Dst != prev.Dst {
				if prev.Src >= 0 && (!prev.Last || st.Src < prev.Src || st.Src == prev.Src && st.Dst < prev.Dst) {
					t.Fatalf("flow %d → %d ended unmarked or came after %d → %d", prev.Src, prev.Dst, st.Src, st.Dst)
				}
				steps, flowStart = 0, at
			} else if prev.Last {
				t.Fatalf("flow %d → %d went on after its last step", st.Src, st.Dst)
			}
			n := 0
			st.Pieces(func(srcOff, dstOff, pn int) {
				for k := range pn {
					if at >= len(want) || want[at] != (elem{st.Src, st.Dst, srcOff + k, dstOff + k}) {
						t.Fatalf("element %d of the walk is %d → %d at %d → %d, the plan's is %+v", at, st.Src, st.Dst, srcOff+k, dstOff+k, want[min(at, len(want)-1)])
					}
					at++
				}
				n += pn
			})
			if n != st.N {
				t.Fatalf("the pieces of a step of %d hold %d", st.N, n)
			}
			if steps++; st.Last && steps != ChunkCount(at-flowStart, chunk) {
				t.Fatalf("flow %d → %d of %d elements took %d steps of %d", st.Src, st.Dst, at-flowStart, steps, chunk)
			}
			prev = st
		}
		if at != len(want) || (prev.Src >= 0 && !prev.Last) {
			t.Fatalf("the walk moved %d of %d elements (last step marked: %v)", at, len(want), prev.Last)
		}
	})
}
