package dseq

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/rts"
)

// wholeLayouts are the distribution laws the whole-sequence tests run under:
// one interval per rank, uneven intervals, and several intervals per rank.
var wholeLayouts = []struct {
	name string
	spec func(ranks int) dist.Spec
}{
	{"block", func(int) dist.Spec { return nil }},
	{"proportions", func(ranks int) dist.Spec {
		p := make([]int, ranks)
		for r := range p {
			p[r] = 1 + r*r
		}
		return dist.Proportions{P: p}
	}},
	{"cyclic", func(int) dist.Spec { return dist.Cyclic{BlockSize: 3} }},
}

// checkWhole runs the whole-sequence contract for one codec on every layout
// and 1–4 ranks. The oracle is independent of the gather: the chunk
// MarshalChunk renders from the generated values.
//
//   - GatherMarshal(root) ≡ GatherMarshalRange(nil, root, 0, Len()) ≡
//     MarshalChunk(truth), byte for byte, and GatherMarshalRangeTo inside
//     an open octet sequence of a larger stream writes the same bytes;
//   - ScatterUnmarshal and its range form store the same elements;
//   - a FailMarker fails every owner and leaves the schedule aligned.
func checkWhole[T comparable](t *testing.T, codec Codec[T], gen func(g int) T) {
	const length = 41
	for _, lay := range wholeLayouts {
		for ranks := 1; ranks <= 4; ranks++ {
			t.Run(fmt.Sprintf("%s/%s/%d", codec.Name, lay.name, ranks), func(t *testing.T) {
				run(t, ranks, func(c *rts.Comm) error {
					root := ranks - 1
					truth := make([]T, length)
					for g := range truth {
						truth[g] = gen(g)
					}
					want := MarshalChunk(codec, truth)

					s, err := New(c, codec, length, lay.spec(ranks))
					if err != nil {
						return err
					}
					s.FillFunc(gen)
					whole, err := s.GatherMarshal(root)
					if err != nil {
						return err
					}
					ranged, err := s.GatherMarshalRange(nil, root, 0, s.Len())
					if err != nil {
						return err
					}
					// Into a caller's encoder: misaligned prefix, open octets.
					var e *cdr.Encoder
					var m cdr.OctetsMark
					if c.Rank() == root {
						e = cdr.NewEncoder(cdr.NativeOrder)
						e.WriteOctet(9)
						m = e.BeginOctets()
					}
					if err := s.GatherMarshalRangeTo(nil, root, 0, s.Len(), 0, e); err != nil {
						return err
					}
					if c.Rank() != root {
						if whole != nil || ranged != nil {
							return fmt.Errorf("rank %d received a payload", c.Rank())
						}
					} else {
						e.EndOctets(m)
						ref := cdr.NewEncoder(cdr.NativeOrder)
						ref.WriteOctet(9)
						ref.WriteOctets(want)
						switch {
						case !bytes.Equal(whole, want):
							return fmt.Errorf("GatherMarshal differs from MarshalChunk of the contents")
						case !bytes.Equal(ranged, want):
							return fmt.Errorf("GatherMarshalRange differs from MarshalChunk of the contents")
						case !bytes.Equal(e.Bytes(), ref.Bytes()):
							return fmt.Errorf("GatherMarshalRangeTo differs from WriteOctets of the chunk")
						}
					}

					// Scatter the chunk into two fresh sequences, one per form.
					a, err := New(c, codec, length, lay.spec(ranks))
					if err != nil {
						return err
					}
					b, err := New(c, codec, length, lay.spec(ranks))
					if err != nil {
						return err
					}
					if err := a.ScatterUnmarshal(root, whole); err != nil {
						return err
					}
					if err := b.ScatterUnmarshalRange(nil, root, 0, b.Len(), ranged); err != nil {
						return err
					}
					for i, v := range s.LocalData() {
						if a.LocalData()[i] != v || b.LocalData()[i] != v {
							return fmt.Errorf("rank %d local[%d]: whole %v, range %v, want %v",
								c.Rank(), i, a.LocalData()[i], b.LocalData()[i], v)
						}
					}

					// Poison: every rank owning elements fails, then the next
					// collective still lines up.
					var marker []byte
					if c.Rank() == root {
						marker = FailMarker
					}
					err = a.ScatterUnmarshal(root, marker)
					if owns := a.LocalLen() > 0 || c.Rank() == root; owns != errors.Is(err, ErrChunkFailed) {
						return fmt.Errorf("rank %d (owner %v): poisoned scatter gave %v", c.Rank(), owns, err)
					}
					return a.ScatterUnmarshal(root, whole)
				})
			})
		}
	}
}

func TestWholeSequenceIsTheFullRange(t *testing.T) {
	checkWhole(t, Float64, func(g int) float64 { return float64(g) * 1.25 })
	checkWhole(t, Int32, func(g int) int32 { return int32(g*g - 7) })
	checkWhole(t, Int64, func(g int) int64 { return int64(g)<<33 - 5 })
	checkWhole(t, Float32, func(g int) float32 { return float32(g) / 4 })
	checkWhole(t, Octet, func(g int) byte { return byte(g * 3) })
	checkWhole(t, Bool, func(g int) bool { return g%3 == 0 })
	checkWhole(t, String, func(g int) string { return fmt.Sprint("s", g) })
}

// TestForeignOrderChunkScatters feeds the scatter a chunk in the other byte
// order: a fixed-width codec must then decode it instead of splitting it as
// bytes.
func TestForeignOrderChunkScatters(t *testing.T) {
	run(t, 3, func(c *rts.Comm) error {
		const length = 20
		s, err := New(c, Float64, length, nil)
		if err != nil {
			return err
		}
		var payload []byte
		if c.Rank() == 0 {
			truth := make([]float64, length)
			for g := range truth {
				truth[g] = float64(g) + 0.5
			}
			e := cdr.NewEncoder(cdr.BigEndian)
			e.WriteOctet(byte(cdr.BigEndian))
			Float64.EncodeSlice(e, truth)
			payload = e.Bytes()
		}
		if err := s.ScatterUnmarshal(0, payload); err != nil {
			return err
		}
		full, err := s.Collect()
		if err != nil {
			return err
		}
		for g, v := range full {
			if v != float64(g)+0.5 {
				return fmt.Errorf("full[%d] = %v", g, v)
			}
		}
		return nil
	})
}

// TestResizeAllocReusesStorage pins the storage contract: an unchanged local
// count keeps the backing array and zeroes it, a changed one reallocates. A
// resize to the length the spec already laid out — what a client's out argument
// gets on every call — keeps the layout too and allocates nothing; once
// something other than the spec shaped the layout, the same length lays it out
// again.
func TestResizeAllocReusesStorage(t *testing.T) {
	run(t, 2, func(c *rts.Comm) error {
		s, err := New(c, Float64, 10, nil)
		if err != nil {
			return err
		}
		s.FillFunc(func(g int) float64 { return float64(g + 1) })
		before := s.LocalData()
		if err := s.ResizeAlloc(10); err != nil {
			return err
		}
		after := s.LocalData()
		if len(after) != 5 || &after[0] != &before[0] {
			return fmt.Errorf("same-count ResizeAlloc did not keep its storage")
		}
		if allocs := testing.AllocsPerRun(10, func() { err = s.ResizeAlloc(10) }); allocs != 0 || err != nil {
			return fmt.Errorf("ResizeAlloc to the length it has allocates %.0f objects (err %v)", allocs, err)
		}
		// SetLen hands the grown tail to the last owner: not the spec's layout.
		if err := s.SetLen(12); err != nil {
			return err
		}
		if err := s.ResizeAlloc(12); err != nil {
			return err
		}
		if block, _ := (dist.Block{}).Layout(12, 2); !s.Layout().Equal(block) {
			return fmt.Errorf("ResizeAlloc after SetLen kept layout %v, want the spec's %v", s.Layout(), block)
		}
		if err := s.ResizeAlloc(10); err != nil {
			return err
		}
		after = s.LocalData()
		for i, v := range after {
			if v != 0 {
				return fmt.Errorf("reused local[%d] = %v, want 0", i, v)
			}
		}
		after[0] = 7
		if err := s.ResizeAlloc(12); err != nil {
			return err
		}
		grown := s.LocalData()
		if len(grown) != 6 || s.Len() != 12 {
			return fmt.Errorf("resized to %d local of %d", len(grown), s.Len())
		}
		if grown[0] != 0 || after[0] != 7 {
			return fmt.Errorf("a different count must reallocate: new[0]=%v old[0]=%v", grown[0], after[0])
		}
		return nil
	})
}

// TestResetReusesOwnStorage pins Reset: it gives what New would — zeroed
// elements on the spec's layout — on the storage the sequence allocated itself,
// whatever SetLocal adopted in between, which it never writes. A Reset to the
// length and spec the sequence has, or had before its last relayout, allocates
// nothing: an out argument that goes from empty to its result every call, by
// Reset and then ResizeAlloc, costs no heap object.
func TestResetReusesOwnStorage(t *testing.T) {
	run(t, 2, func(c *rts.Comm) error {
		spec := dist.Proportions{P: []int{1, 3}}
		s, err := New(c, Float64, 100, spec)
		if err != nil {
			return err
		}
		own := s.LocalData()
		adopted := make([]float64, len(own))
		for i := range adopted {
			adopted[i] = 7
		}
		if err := s.SetLocal(adopted); err != nil {
			return err
		}
		var same dist.Spec = dist.Proportions{P: []int{1, 3}} // equal, not identical
		if err := s.Reset(40, same); err != nil {
			return err
		}
		want, _ := spec.Layout(40, 2)
		if got := s.LocalData(); !s.Layout().Equal(want) || len(got) != want.Count(c.Rank()) || &got[0] != &own[0] {
			return fmt.Errorf("Reset(40) gave %d local elements on %v, want %d of its own storage on %v", len(got), s.Layout(), want.Count(c.Rank()), want)
		}
		for i := range adopted {
			if adopted[i] != 7 {
				return errors.New("Reset wrote the storage SetLocal adopted")
			}
		}
		for _, v := range s.LocalData() {
			if v != 0 {
				return fmt.Errorf("Reset left %v behind", v)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if err = s.Reset(0, same); err == nil {
				err = s.ResizeAlloc(100)
			}
		}); allocs != 0 || err != nil {
			return fmt.Errorf("an empty-then-sized cycle allocates %.0f objects (err %v)", allocs, err)
		}
		if &s.LocalData()[0] != &own[0] {
			return errors.New("ResizeAlloc of an empty sequence did not grow into its own storage")
		}
		cyclic := dist.Cyclic{BlockSize: 1}
		if err := s.Reset(100, cyclic); err != nil {
			return err
		}
		if want, _ := cyclic.Layout(100, 2); !s.Layout().Equal(want) {
			return fmt.Errorf("Reset to another spec kept layout %v, want %v", s.Layout(), want)
		}
		return nil
	})
}
