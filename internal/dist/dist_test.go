package dist

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cdr"
)

func mustLayout(t *testing.T, s Spec, length, ranks int) Layout {
	t.Helper()
	l, err := s.Layout(length, ranks)
	if err != nil {
		t.Fatalf("%v.Layout(%d,%d): %v", s, length, ranks, err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("%v.Layout(%d,%d) invalid: %v", s, length, ranks, err)
	}
	return l
}

func TestBlockLayout(t *testing.T) {
	cases := []struct {
		length, ranks int
		want          []int // counts
	}{
		{10, 1, []int{10}},
		{10, 2, []int{5, 5}},
		{10, 3, []int{4, 3, 3}},
		{10, 4, []int{3, 3, 2, 2}},
		{3, 5, []int{1, 1, 1, 0, 0}},
		{0, 3, []int{0, 0, 0}},
		{1 << 19, 8, []int{65536, 65536, 65536, 65536, 65536, 65536, 65536, 65536}},
	}
	for _, c := range cases {
		l := mustLayout(t, Block{}, c.length, c.ranks)
		got := l.Counts()
		for r := range c.want {
			if got[r] != c.want[r] {
				t.Errorf("Block(%d,%d) counts %v, want %v", c.length, c.ranks, got, c.want)
				break
			}
		}
		// Blockwise means each rank owns a single contiguous run in rank order.
		off := 0
		for r, ivs := range l.Intervals {
			if len(ivs) > 1 {
				t.Errorf("Block(%d,%d) rank %d has %d intervals", c.length, c.ranks, r, len(ivs))
			}
			for _, iv := range ivs {
				if iv.Start != off {
					t.Errorf("Block(%d,%d) rank %d starts at %d, want %d", c.length, c.ranks, r, iv.Start, off)
				}
				off = iv.End()
			}
		}
	}
}

func TestBlockSizesDifferByAtMostOne(t *testing.T) {
	prop := func(length uint16, ranks uint8) bool {
		r := int(ranks%16) + 1
		l, err := Block{}.Layout(int(length), r)
		if err != nil {
			return false
		}
		counts := l.Counts()
		mn, mx := counts[0], counts[0]
		for _, c := range counts {
			mn = min(mn, c)
			mx = max(mx, c)
		}
		return mx-mn <= 1 && l.Validate() == nil
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProportionsPaperExample(t *testing.T) {
	// Paper §2.2: Proportions(2,4,2,4) over threads 0..3 in ratio 2:4:2:4.
	l := mustLayout(t, Proportions{P: []int{2, 4, 2, 4}}, 1200, 4)
	want := []int{200, 400, 200, 400}
	got := l.Counts()
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("Proportions(2,4,2,4) over 1200: %v, want %v", got, want)
		}
	}
}

func TestProportionsRounding(t *testing.T) {
	l := mustLayout(t, Proportions{P: []int{1, 1, 1}}, 10, 3)
	got := l.Counts()
	sum := 0
	for _, c := range got {
		sum += c
	}
	if sum != 10 {
		t.Fatalf("counts %v do not sum to 10", got)
	}
	for _, c := range got {
		if c < 3 || c > 4 {
			t.Fatalf("counts %v deviate from ratio by more than one", got)
		}
	}
}

func TestProportionsZeroEntry(t *testing.T) {
	l := mustLayout(t, Proportions{P: []int{0, 1, 0, 1}}, 8, 4)
	got := l.Counts()
	if got[0] != 0 || got[2] != 0 || got[1] != 4 || got[3] != 4 {
		t.Fatalf("counts %v", got)
	}
}

func TestProportionsErrors(t *testing.T) {
	if _, err := (Proportions{P: []int{1, 2}}).Layout(10, 3); !errors.Is(err, ErrBadSpec) {
		t.Errorf("rank mismatch: %v", err)
	}
	if _, err := (Proportions{P: []int{1, -1}}).Layout(10, 2); !errors.Is(err, ErrBadSpec) {
		t.Errorf("negative proportion: %v", err)
	}
	if _, err := (Proportions{P: []int{0, 0}}).Layout(10, 2); !errors.Is(err, ErrBadSpec) {
		t.Errorf("zero sum: %v", err)
	}
	if _, err := (Proportions{P: []int{1}}).Layout(-1, 1); !errors.Is(err, ErrNegative) {
		t.Errorf("negative length: %v", err)
	}
}

func TestProportionsIsPartitionProperty(t *testing.T) {
	prop := func(length uint16, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		p := Proportions{P: make([]int, len(raw))}
		sum := 0
		for i, v := range raw {
			p.P[i] = int(v)
			sum += int(v)
		}
		if sum == 0 {
			p.P[0] = 1
		}
		l, err := p.Layout(int(length), len(p.P))
		return err == nil && l.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclicLayout(t *testing.T) {
	l := mustLayout(t, Cyclic{BlockSize: 2}, 10, 2)
	// blocks: [0,2)->r0 [2,4)->r1 [4,6)->r0 [6,8)->r1 [8,10)->r0
	if got := l.Counts(); got[0] != 6 || got[1] != 4 {
		t.Fatalf("cyclic counts %v", got)
	}
	r, local, err := l.Owner(5)
	if err != nil || r != 0 || local != 3 {
		t.Fatalf("Owner(5) = %d,%d,%v", r, local, err)
	}
	r, local, err = l.Owner(7)
	if err != nil || r != 1 || local != 3 {
		t.Fatalf("Owner(7) = %d,%d,%v", r, local, err)
	}
}

func TestCyclicIsPartitionProperty(t *testing.T) {
	prop := func(length uint16, ranks, bs uint8) bool {
		r := int(ranks%8) + 1
		b := int(bs%16) + 1
		l, err := Cyclic{BlockSize: b}.Layout(int(length)%5000, r)
		return err == nil && l.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclicBadBlockSize(t *testing.T) {
	if _, err := (Cyclic{BlockSize: 0}).Layout(10, 2); !errors.Is(err, ErrBadSpec) {
		t.Fatal(err)
	}
}

func TestOwnerGlobalInverse(t *testing.T) {
	specs := []Spec{Block{}, Proportions{P: []int{3, 1, 2}}, Cyclic{BlockSize: 4}}
	for _, s := range specs {
		var l Layout
		if p, ok := s.(Proportions); ok {
			l = mustLayout(t, p, 100, len(p.P))
		} else {
			l = mustLayout(t, s, 100, 3)
		}
		for i := 0; i < 100; i++ {
			r, local, err := l.Owner(i)
			if err != nil {
				t.Fatalf("%v Owner(%d): %v", s, i, err)
			}
			g, err := l.Global(r, local)
			if err != nil || g != i {
				t.Fatalf("%v Global(%d,%d) = %d,%v; want %d", s, r, local, g, err, i)
			}
		}
	}
	if _, _, err := mustLayout(t, Block{}, 5, 2).Owner(5); err == nil {
		t.Fatal("Owner(out of range) accepted")
	}
	if _, err := mustLayout(t, Block{}, 5, 2).Global(0, 99); err == nil {
		t.Fatal("Global(out of range) accepted")
	}
	if _, err := mustLayout(t, Block{}, 5, 2).Global(9, 0); err == nil {
		t.Fatal("Global(bad rank) accepted")
	}
}

func TestLayoutValidateRejectsBroken(t *testing.T) {
	bad := []Layout{
		{Length: 4, Ranks: 1, Intervals: [][]Interval{{{0, 3}}}},              // gap at end
		{Length: 4, Ranks: 2, Intervals: [][]Interval{{{0, 3}}, {{2, 2}}}},    // overlap
		{Length: 4, Ranks: 2, Intervals: [][]Interval{{{0, 4}}, {{4, 1}}}},    // out of range
		{Length: 4, Ranks: 2, Intervals: [][]Interval{{{2, 2}, {0, 2}}, nil}}, // unsorted
		{Length: 4, Ranks: 2, Intervals: [][]Interval{{{0, 0}}, {{0, 4}}}},    // empty interval
		{Length: 4, Ranks: 2, Intervals: [][]Interval{{{0, 4}}}},              // missing list
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: invalid layout accepted", i)
		}
	}
}

func TestLayoutEqual(t *testing.T) {
	a := mustLayout(t, Block{}, 10, 2)
	b := mustLayout(t, Block{}, 10, 2)
	c := mustLayout(t, Block{}, 10, 3)
	d := mustLayout(t, Cyclic{BlockSize: 1}, 10, 2)
	if !a.Equal(b) {
		t.Fatal("identical layouts unequal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Fatal("different layouts equal")
	}
}

func TestSpecWireRoundTrip(t *testing.T) {
	specs := []Spec{Block{}, Proportions{P: []int{2, 4, 2, 4}}, Cyclic{BlockSize: 7}}
	for _, s := range specs {
		e := cdr.NewEncoder(cdr.NativeOrder)
		EncodeSpec(e, s)
		got, err := DecodeSpec(cdr.NewDecoder(e.Bytes(), cdr.NativeOrder))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if got.String() != s.String() {
			t.Fatalf("round trip %v → %v", s, got)
		}
	}
	// Unknown discriminant.
	e := cdr.NewEncoder(cdr.NativeOrder)
	e.WriteEnum(99)
	if _, err := DecodeSpec(cdr.NewDecoder(e.Bytes(), cdr.NativeOrder)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown kind: %v", err)
	}
}

func TestLayoutWireRoundTrip(t *testing.T) {
	encode := func(l Layout) *cdr.Decoder {
		e := cdr.NewEncoder(cdr.NativeOrder)
		EncodeLayout(e, l)
		return cdr.NewDecoder(e.Bytes(), cdr.NativeOrder)
	}
	// A dirty layout: filled first from a larger one, more ranks and more
	// intervals, whose storage every decode below reuses.
	var dirty Layout
	if err := DecodeLayout(encode(mustLayout(t, Cyclic{BlockSize: 1}, 40, 7)), &dirty); err != nil {
		t.Fatal(err)
	}
	// Corrupt layout must be rejected by the embedded validation.
	bad := Layout{Length: 4, Ranks: 1, Intervals: [][]Interval{{{0, 3}}}}
	for _, s := range []Spec{Block{}, Cyclic{BlockSize: 3}} {
		l := mustLayout(t, s, 29, 4)
		var got Layout
		if err := DecodeLayout(encode(l), &got); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !got.Equal(l) {
			t.Fatalf("%v: layouts differ after round trip", s)
		}
		if err := DecodeLayout(encode(l), &dirty); err != nil || !dirty.Equal(l) {
			t.Fatalf("%v: decoded into a dirty layout: %v, %+v", s, err, dirty)
		}
		// A refused decode leaves nothing the next one keeps.
		if err := DecodeLayout(encode(bad), &dirty); err == nil {
			t.Fatal("corrupt layout accepted")
		}
		if err := DecodeLayout(encode(l), &dirty); err != nil || !dirty.Equal(l) {
			t.Fatalf("%v: decoded after a refused layout: %v, %+v", s, err, dirty)
		}
	}
}
