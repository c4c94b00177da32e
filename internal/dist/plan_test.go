package dist

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPlanIdentityIsLocal(t *testing.T) {
	l := mustLayout(t, Block{}, 100, 4)
	moves, err := Plan(l, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 4 {
		t.Fatalf("identity plan has %d moves, want 4", len(moves))
	}
	for _, m := range moves {
		if m.SrcRank != m.DstRank || m.SrcOff != m.DstOff || m.SrcOff != 0 {
			t.Fatalf("identity move %+v", m)
		}
	}
}

func TestPlanBlockToBlockCounts(t *testing.T) {
	// 4 client ranks → 8 server ranks, 1<<19 doubles (the paper's Figure 4
	// configuration): each client block splits into exactly 2 server blocks.
	src := mustLayout(t, Block{}, 1<<19, 4)
	dst := mustLayout(t, Block{}, 1<<19, 8)
	moves, err := Plan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 8 {
		t.Fatalf("plan has %d moves, want 8", len(moves))
	}
	var perSrc [4]int
	var perDst [8]int
	for _, m := range moves {
		perSrc[m.SrcRank]++
		perDst[m.DstRank]++
	}
	for r, n := range perSrc {
		if n != 2 {
			t.Fatalf("client rank %d sends %d transfers, want 2", r, n)
		}
	}
	for r, n := range perDst {
		if n != 1 {
			t.Fatalf("server rank %d receives %d transfers, want 1", r, n)
		}
	}
}

func TestPlanPaperMinimumSends(t *testing.T) {
	// §3.3: "the sequence can always be divided very efficiently (only the
	// minimum number of sends in each case)". For block→block with c
	// clients and s servers the minimum number of contiguous transfers is
	// c+s-1 when boundaries interleave, and the plan must reach it.
	for _, cfg := range []struct{ c, s int }{{1, 1}, {2, 1}, {1, 2}, {2, 4}, {4, 8}, {8, 4}, {3, 5}} {
		src := mustLayout(t, Block{}, 1<<19, cfg.c)
		dst := mustLayout(t, Block{}, 1<<19, cfg.s)
		moves, err := Plan(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		maxMoves := cfg.c + cfg.s - 1
		if len(moves) > maxMoves {
			t.Errorf("c=%d s=%d: %d moves, minimum is ≤ %d", cfg.c, cfg.s, len(moves), maxMoves)
		}
	}
}

// applyPlan simulates a redistribution: data starts distributed per src, the
// plan's moves copy it into buffers distributed per dst.
func applyPlan(t *testing.T, src, dst Layout, moves []Move) bool {
	t.Helper()
	// Build source buffers holding the global index of each element.
	srcBufs := make([][]int, src.Ranks)
	for r := range srcBufs {
		srcBufs[r] = make([]int, src.Count(r))
	}
	for i := 0; i < src.Length; i++ {
		r, local, err := src.Owner(i)
		if err != nil {
			t.Fatal(err)
		}
		srcBufs[r][local] = i
	}
	dstBufs := make([][]int, dst.Ranks)
	for r := range dstBufs {
		dstBufs[r] = make([]int, dst.Count(r))
		for i := range dstBufs[r] {
			dstBufs[r][i] = -1
		}
	}
	for _, m := range moves {
		copy(dstBufs[m.DstRank][m.DstOff:m.DstOff+m.Len], srcBufs[m.SrcRank][m.SrcOff:m.SrcOff+m.Len])
	}
	// Every destination element must hold its own global index.
	for i := 0; i < dst.Length; i++ {
		r, local, err := dst.Owner(i)
		if err != nil {
			t.Fatal(err)
		}
		if dstBufs[r][local] != i {
			return false
		}
	}
	return true
}

func TestPlanMovesDataCorrectly(t *testing.T) {
	layouts := func(length int) []Layout {
		return []Layout{
			mustLayout(t, Block{}, length, 1),
			mustLayout(t, Block{}, length, 3),
			mustLayout(t, Block{}, length, 8),
			mustLayout(t, Proportions{P: []int{2, 4, 2, 4}}, length, 4),
			mustLayout(t, Proportions{P: []int{0, 1, 5}}, length, 3),
			mustLayout(t, Cyclic{BlockSize: 1}, length, 4),
			mustLayout(t, Cyclic{BlockSize: 7}, length, 3),
		}
	}
	for _, length := range []int{0, 1, 17, 256} {
		for _, src := range layouts(length) {
			for _, dst := range layouts(length) {
				moves, err := Plan(src, dst)
				if err != nil {
					t.Fatalf("Plan(%d): %v", length, err)
				}
				if !applyPlan(t, src, dst, moves) {
					t.Fatalf("length %d: plan src=%v dst=%v lost data", length, src.Intervals, dst.Intervals)
				}
			}
		}
	}
}

// randomLayout builds a random contiguous partition (like a Proportions
// layout with random weights).
func randomLayout(rng *rand.Rand, length, ranks int) Layout {
	cuts := make([]int, ranks-1)
	for i := range cuts {
		cuts[i] = rng.Intn(length + 1)
	}
	bounds := append([]int{0}, cuts...)
	bounds = append(bounds, length)
	// insertion sort (tiny n)
	for i := 1; i < len(bounds); i++ {
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	ivs := make([][]Interval, ranks)
	for r := 0; r < ranks; r++ {
		n := bounds[r+1] - bounds[r]
		if n > 0 {
			ivs[r] = []Interval{{Start: bounds[r], Len: n}}
		}
	}
	return Layout{Length: length, Ranks: ranks, Intervals: ivs}
}

func TestPlanRandomLayoutsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		length := rng.Intn(500)
		src := randomLayout(rng, length, 1+rng.Intn(8))
		dst := randomLayout(rng, length, 1+rng.Intn(8))
		moves, err := Plan(src, dst)
		if err != nil {
			return false
		}
		// Moves must be disjoint and cover the domain exactly once.
		total := 0
		covered := make([]bool, length)
		for _, m := range moves {
			if m.Len <= 0 {
				return false
			}
			total += m.Len
			for g := m.Global; g < m.Global+m.Len; g++ {
				if covered[g] {
					return false
				}
				covered[g] = true
			}
		}
		if total != length {
			return false
		}
		return applyPlan(t, src, dst, moves)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanErrors(t *testing.T) {
	good := mustLayout(t, Block{}, 10, 2)
	short := mustLayout(t, Block{}, 9, 2)
	if _, err := Plan(good, short); err == nil {
		t.Fatal("length mismatch accepted")
	}
	bad := Layout{Length: 10, Ranks: 1, Intervals: [][]Interval{{{0, 5}}}}
	if _, err := Plan(bad, good); err == nil {
		t.Fatal("invalid src accepted")
	}
	if _, err := Plan(good, bad); err == nil {
		t.Fatal("invalid dst accepted")
	}
}

// TestPlanInto: a plan into storage that holds a larger earlier plan is the
// plan Plan makes afresh, in that storage, and a plan into its own storage
// allocates nothing.
func TestPlanInto(t *testing.T) {
	const length = 1001
	dirty, err := Plan(mustLayout(t, Cyclic{BlockSize: 1}, 4*length, 4), mustLayout(t, Block{}, 4*length, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name     string
		src, dst Layout
	}{
		{"uneven block to block", mustLayout(t, Block{}, length, 3), mustLayout(t, Block{}, length, 4)},
		{"block to cyclic(3)", mustLayout(t, Block{}, length, 3), mustLayout(t, Cyclic{BlockSize: 3}, length, 2)},
		{"proportions with an empty rank", mustLayout(t, Proportions{P: []int{0, 1, 5}}, length, 3), mustLayout(t, Block{}, length, 2)},
		{"cyclic(1) to block", mustLayout(t, Cyclic{BlockSize: 1}, length, 4), mustLayout(t, Block{}, length, 2)},
	} {
		want, err := Plan(tt.src, tt.dst)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PlanInto(dirty, tt.src, tt.dst)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("%s: PlanInto over a larger plan gives %d moves (%v), Plan %d", tt.name, len(got), err, len(want))
		}
		if &got[:1][0] != &dirty[:1][0] {
			t.Errorf("%s: PlanInto left storage of %d moves for a plan of %d", tt.name, cap(dirty), len(got))
		}
		if allocs := testing.AllocsPerRun(20, func() { got, err = PlanInto(got, tt.src, tt.dst) }); allocs != 0 || err != nil {
			t.Errorf("%s: a warm PlanInto allocates %.0f objects (%v)", tt.name, allocs, err)
		}
	}
}

// TestBlockLayoutInto: Block.LayoutInto lays out what Layout does, in the
// storage of the layout it overwrites, and allocates nothing there; storage
// over KeptIntervals it lets go.
func TestBlockLayoutInto(t *testing.T) {
	var l Layout
	if err := (Block{}).LayoutInto(&l, 50, 7); err != nil {
		t.Fatal(err)
	}
	kept := &l.Intervals[:1][0]
	for _, c := range []struct{ length, ranks int }{{1001, 3}, {2, 5}, {0, 1}, {50, 7}} {
		want := mustLayout(t, Block{}, c.length, c.ranks)
		if allocs := testing.AllocsPerRun(20, func() {
			if err := (Block{}).LayoutInto(&l, c.length, c.ranks); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 || !l.Equal(want) || l.Validate() != nil || &l.Intervals[:1][0] != kept {
			t.Errorf("LayoutInto(%d, %d) over 7 ranks: %+v in kept storage %v, %.0f allocations; want %+v", c.length, c.ranks,
				l.Intervals, &l.Intervals[:1][0] == kept, allocs, want.Intervals)
		}
	}
	wide := KeptIntervals + 1
	if err := (Block{}).LayoutInto(&l, wide, wide); err != nil {
		t.Fatal(err)
	}
	if err := (Block{}).LayoutInto(&l, 10, 2); err != nil || cap(l.Intervals) > KeptIntervals || cap(l.flat) > KeptIntervals {
		t.Errorf("after a layout of %d ranks, one of 2 keeps %d and %d intervals (%v)", wide, cap(l.Intervals), cap(l.flat), err)
	}
}
