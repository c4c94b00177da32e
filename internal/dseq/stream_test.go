package dseq

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/rts"
)

// chunkSchedule yields the deterministic chunk ranges the transfer engine
// walks: [k*ce, min((k+1)*ce, length)).
func chunkSchedule(length, ce int) [][2]int {
	var out [][2]int
	for start := 0; start < length; start += ce {
		n := min(ce, length-start)
		out = append(out, [2]int{start, n})
	}
	return out
}

// TestGatherMarshalRangeMatchesWholeGather streams a sequence chunk by chunk
// on a duplicated (lane) communicator and checks the concatenated chunks
// decode to exactly the contents, and to what GatherTo (the whole range in
// one gather) produces, across chunk sizes that land inside one rank's
// block, on block boundaries, and across them.
func TestGatherMarshalRangeMatchesWholeGather(t *testing.T) {
	for _, ce := range []int{1, 7, 25, 30, 100, 128} {
		t.Run(fmt.Sprintf("chunk=%d", ce), func(t *testing.T) {
			run(t, 4, func(c *rts.Comm) error {
				s, err := New(c, Float64, 100, nil)
				if err != nil {
					return err
				}
				s.FillFunc(func(g int) float64 { return float64(g) * 1.5 })
				lane, err := c.Dup()
				if err != nil {
					return err
				}
				const root = 1
				got := make([]float64, 0, 100)
				for _, ch := range chunkSchedule(100, ce) {
					payload, err := s.GatherMarshalRange(lane, root, ch[0], ch[1])
					if err != nil {
						return err
					}
					if c.Rank() != root {
						if payload != nil {
							return fmt.Errorf("rank %d received a payload", c.Rank())
						}
						continue
					}
					vals, err := UnmarshalChunk(s.Codec(), payload)
					if err != nil {
						return err
					}
					if len(vals) != ch[1] {
						return fmt.Errorf("chunk [%d,+%d) decoded %d values", ch[0], ch[1], len(vals))
					}
					got = append(got, vals...)
				}
				want, err := s.GatherTo(root) // collective: every rank calls it
				if err != nil {
					return err
				}
				if c.Rank() != root {
					return nil
				}
				for i := range want {
					if got[i] != want[i] || got[i] != float64(i)*1.5 {
						return fmt.Errorf("chunked[%d] = %v, whole gather %v, want %v", i, got[i], want[i], float64(i)*1.5)
					}
				}
				return nil
			})
		})
	}
}

// TestScatterUnmarshalRangeMatchesWholeScatter streams new contents into a
// sequence chunk by chunk and checks every rank ends up with exactly what a
// whole-sequence ScatterFrom would have stored.
func TestScatterUnmarshalRangeMatchesWholeScatter(t *testing.T) {
	for _, ce := range []int{1, 7, 25, 30, 100, 128} {
		t.Run(fmt.Sprintf("chunk=%d", ce), func(t *testing.T) {
			run(t, 4, func(c *rts.Comm) error {
				s, err := New(c, Int32, 100, nil)
				if err != nil {
					return err
				}
				lane, err := c.Dup()
				if err != nil {
					return err
				}
				const root = 2
				for _, ch := range chunkSchedule(100, ce) {
					var payload []byte
					if c.Rank() == root {
						vals := make([]int32, ch[1])
						for i := range vals {
							vals[i] = int32(1000 + ch[0] + i)
						}
						payload = MarshalChunk(s.Codec(), vals)
					}
					if err := s.ScatterUnmarshalRange(lane, root, ch[0], ch[1], payload); err != nil {
						return err
					}
				}
				full, err := s.Collect()
				if err != nil {
					return err
				}
				for i, v := range full {
					if v != int32(1000+i) {
						return fmt.Errorf("rank %d: full[%d] = %d", c.Rank(), i, v)
					}
				}
				return nil
			})
		})
	}
}

// TestStreamRangeCyclicLayout exercises the multi-segment paths: with a
// cyclic layout every sizeable chunk spans several ranks and a rank's share
// of one chunk spans several intervals.
func TestStreamRangeCyclicLayout(t *testing.T) {
	run(t, 3, func(c *rts.Comm) error {
		const length = 60
		s, err := New(c, Int32, length, dist.Cyclic{BlockSize: 4})
		if err != nil {
			return err
		}
		s.FillFunc(func(g int) int32 { return int32(g) })
		const root = 0
		// Gather in chunks of 17 (straddles blocks and ranks), then scatter
		// back doubled values through the same schedule.
		for _, ch := range chunkSchedule(length, 17) {
			payload, err := s.GatherMarshalRange(nil, root, ch[0], ch[1])
			if err != nil {
				return err
			}
			if c.Rank() != root {
				continue
			}
			vals, err := UnmarshalChunk(s.Codec(), payload)
			if err != nil {
				return err
			}
			for i, v := range vals {
				if v != int32(ch[0]+i) {
					return fmt.Errorf("chunk [%d,+%d)[%d] = %d", ch[0], ch[1], i, v)
				}
			}
		}
		for _, ch := range chunkSchedule(length, 17) {
			var payload []byte
			if c.Rank() == root {
				vals := make([]int32, ch[1])
				for i := range vals {
					vals[i] = int32(2 * (ch[0] + i))
				}
				payload = MarshalChunk(s.Codec(), vals)
			}
			if err := s.ScatterUnmarshalRange(nil, root, ch[0], ch[1], payload); err != nil {
				return err
			}
		}
		off := 0
		for _, iv := range s.Layout().Intervals[c.Rank()] {
			for j := 0; j < iv.Len; j++ {
				if got := s.LocalData()[off+j]; got != int32(2*(iv.Start+j)) {
					return fmt.Errorf("rank %d local[%d] = %d, want %d", c.Rank(), off+j, got, 2*(iv.Start+j))
				}
			}
			off += iv.Len
		}
		return nil
	})
}

// TestStreamRangeAcrossFourRanks drives one large range that all four ranks
// own part of, under the race detector with real collective traffic.
func TestStreamRangeAcrossFourRanks(t *testing.T) {
	run(t, 4, func(c *rts.Comm) error {
		const length = 1 << 17
		s, err := New(c, Float64, length, nil)
		if err != nil {
			return err
		}
		s.FillFunc(func(g int) float64 { return float64(g) })
		const root = 0
		// One chunk spanning all four ranks: root assembles it from every
		// contributor and splits it back.
		payload, err := s.GatherMarshalRange(nil, root, 0, length)
		if err != nil {
			return err
		}
		if c.Rank() == root {
			vals, err := UnmarshalChunk(s.Codec(), payload)
			if err != nil {
				return err
			}
			for i := 0; i < length; i += 1 << 14 {
				if vals[i] != float64(i) {
					return fmt.Errorf("vals[%d] = %v", i, vals[i])
				}
			}
		}
		return s.ScatterUnmarshalRange(nil, root, 0, length, payload)
	})
}

// TestScatterRangeFailMarker checks the poisoned-chunk contract: feeding
// FailMarker keeps the collective schedule aligned, owners of the range get
// ErrChunkFailed, and the next chunk still works.
func TestScatterRangeFailMarker(t *testing.T) {
	run(t, 4, func(c *rts.Comm) error {
		s, err := New(c, Int32, 100, nil)
		if err != nil {
			return err
		}
		const root = 0
		// Chunk [25, 75) is owned by ranks 1 and 2; poison it.
		var payload []byte
		if c.Rank() == root {
			payload = FailMarker
		}
		err = s.ScatterUnmarshalRange(nil, root, 25, 50, payload)
		switch c.Rank() {
		case 1, 2, root: // owners, plus root which fed the marker
			if !errors.Is(err, ErrChunkFailed) {
				return fmt.Errorf("rank %d: poisoned chunk gave %v", c.Rank(), err)
			}
		default:
			if err != nil {
				return fmt.Errorf("rank %d: non-owner saw %v", c.Rank(), err)
			}
		}
		// The schedule must survive: the following chunk transfers normally.
		if c.Rank() == root {
			vals := make([]int32, 25)
			for i := range vals {
				vals[i] = int32(i)
			}
			payload = MarshalChunk(s.Codec(), vals)
		}
		if err := s.ScatterUnmarshalRange(nil, root, 75, 25, payload); err != nil {
			return err
		}
		if got := s.Layout().Count(c.Rank()); got != 25 {
			return fmt.Errorf("unexpected layout count %d", got)
		}
		if c.Rank() == 3 {
			for i, v := range s.LocalData() {
				if v != int32(i) {
					return fmt.Errorf("local[%d] = %d after recovery", i, v)
				}
			}
		}
		return nil
	})
}

// TestStreamRangeValidation pins the deterministic pre-communication
// rejections: bad ranges and mismatched communicators fail at every rank
// without any traffic (a hang here would time the test out).
func TestStreamRangeValidation(t *testing.T) {
	run(t, 2, func(c *rts.Comm) error {
		s, err := New(c, Int32, 10, nil)
		if err != nil {
			return err
		}
		for _, bad := range [][2]int{{-1, 5}, {0, -2}, {8, 3}} {
			if _, err := s.GatherMarshalRange(nil, 0, bad[0], bad[1]); !errors.Is(err, ErrIndex) {
				return fmt.Errorf("gather range %v accepted: %v", bad, err)
			}
			if err := s.ScatterUnmarshalRange(nil, 0, bad[0], bad[1], nil); !errors.Is(err, ErrIndex) {
				return fmt.Errorf("scatter range %v accepted: %v", bad, err)
			}
		}
		if _, err := s.GatherMarshalRange(nil, 5, 0, 4); !errors.Is(err, ErrIndex) {
			return fmt.Errorf("bad root accepted: %v", err)
		}
		// A zero-length range is valid, communication-free, and yields a
		// well-formed empty chunk at root (whole-sequence transfers of empty
		// sequences need one).
		payload, err := s.GatherMarshalRange(nil, 0, 0, 0)
		if err != nil {
			return fmt.Errorf("empty range: %v", err)
		}
		if c.Rank() == 0 {
			vals, err := UnmarshalChunk(s.Codec(), payload)
			if err != nil || len(vals) != 0 {
				return fmt.Errorf("empty chunk decoded to %d vals, err %v", len(vals), err)
			}
		}
		if err := s.ScatterUnmarshalRange(nil, 0, 0, 0, payload); err != nil {
			return fmt.Errorf("empty scatter: %v", err)
		}
		return nil
	})
}

// TestCommDups checks the single-round lane allocation: all ranks agree on
// every duplicated context and the lanes are isolated from each other.
func TestCommDups(t *testing.T) {
	run(t, 3, func(c *rts.Comm) error {
		lanes, err := c.Dups(4)
		if err != nil {
			return err
		}
		if len(lanes) != 4 {
			return fmt.Errorf("got %d lanes", len(lanes))
		}
		seen := map[int]bool{c.Context(): true}
		for i, l := range lanes {
			if l.Rank() != c.Rank() || l.Size() != c.Size() {
				return fmt.Errorf("lane %d shape %d/%d", i, l.Rank(), l.Size())
			}
			if seen[l.Context()] {
				return fmt.Errorf("lane %d reuses context %d", i, l.Context())
			}
			seen[l.Context()] = true
		}
		// Traffic on one lane must not be visible on another: send on lane 0,
		// probe on lane 1, receive on lane 0.
		if c.Rank() == 0 {
			if err := lanes[0].Send(1, 7, []byte("lane0")); err != nil {
				return err
			}
		}
		if c.Rank() == 1 {
			b, st, err := lanes[0].Recv(0, 7)
			if err != nil {
				return err
			}
			if string(b) != "lane0" || st.Source != 0 {
				return fmt.Errorf("lane 0 delivered %q from %d", b, st.Source)
			}
			if _, ok := lanes[1].Probe(rts.AnySource, rts.AnyTag); ok {
				return fmt.Errorf("lane 1 saw lane 0 traffic")
			}
		}
		return c.Barrier()
	})
}
