package dseq

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/rts"
	"repro/internal/zcodec"
)

// scribble is what watchPuts overwrites a returned buffer with. No chunk
// starts with it: a chunk's first octet is a byte order, an envelope marker
// or the fail marker.
const scribble = 0xDB

// watchPuts installs the chunk pool's test hook for the rest of the test:
// every buffer re-entering the pool is scribbled over at full capacity, so a
// rank still reading a buffer that was returned too early sees garbage instead
// of plausibly stale elements. The returned function reports whether the
// buffer based at p was ever put. (A buffer put twice shows in the ledger: the
// tests below require exact balances.)
func watchPuts(t *testing.T) (wasPut func(p *byte) bool) {
	var mu sync.Mutex
	put := map[*byte]bool{}
	bufpool.Chunks.OnReturn = func(b []byte) {
		for i := range b {
			b[i] = scribble
		}
		mu.Lock()
		put[&b[0]] = true
		mu.Unlock()
	}
	t.Cleanup(func() { bufpool.Chunks.OnReturn = nil })
	return func(p *byte) bool {
		mu.Lock()
		defer mu.Unlock()
		return put[p]
	}
}

// outstanding returns a function reporting how many chunk buffers were rented
// and not returned since this call.
func outstanding() func() int64 {
	base := bufpool.Chunks.Stats().Outstanding()
	return func() int64 { return bufpool.Chunks.Stats().Outstanding() - base }
}

// rented is how many chunk buffers were ever rented.
func rented() uint64 { st := bufpool.Chunks.Stats(); return st.Hits + st.Misses }

func ramp(g int) float64 { return 1000 + 3*float64(g) }

// rootEncoder is what a gather's caller passes as dst: an encoder at root.
func rootEncoder(c *rts.Comm, root int) *cdr.Encoder {
	if c.Rank() != root {
		return nil
	}
	return cdr.NewEncoder(cdr.NativeOrder)
}

// checkLocal verifies a rank's share of a sequence against the ramp.
func checkLocal(s *Seq[float64]) error {
	local, off := s.LocalData(), 0
	for _, iv := range s.Layout().Intervals[s.Comm().Rank()] {
		for j := 0; j < iv.Len; j++ {
			if got, want := local[off+j], ramp(iv.Start+j); got != want {
				return fmt.Errorf("rank %d element %d is %v, want %v", s.Comm().Rank(), iv.Start+j, got, want)
			}
		}
		off += iv.Len
	}
	return nil
}

// TestChunkPoolLedger walks a chunk schedule — gather at a rotating root,
// scatter back out — over every layout family, one to four ranks, raw and
// compressed, and requires the pool's books to balance once the world is
// quiet: every buffer a rank rented to cross a mailbox came back exactly
// once, from the rank that consumed it.
func TestChunkPoolLedger(t *testing.T) {
	const length, chunk = 6000, 1000
	specs := []struct {
		name string
		spec func(ranks int) dist.Spec
	}{
		{"block", func(int) dist.Spec { return dist.Block{} }},
		{"cyclic", func(int) dist.Spec { return dist.Cyclic{BlockSize: 48} }},
		{"proportions", func(ranks int) dist.Spec { return dist.Proportions{P: []int{3, 1, 4, 2}[:ranks]} }},
	}
	for _, sp := range specs {
		for ranks := 1; ranks <= 4; ranks++ {
			for _, mask := range []uint8{0, zcodec.MaskAll} {
				t.Run(fmt.Sprintf("%s/%d/mask%d", sp.name, ranks, mask), func(t *testing.T) {
					watchPuts(t)
					owed := outstanding()
					crossed := rented()
					run(t, ranks, func(c *rts.Comm) error {
						src, err := New(c, Float64, length, sp.spec(ranks))
						if err != nil {
							return err
						}
						src.FillFunc(ramp)
						dst, err := New(c, Float64, length, sp.spec(ranks))
						if err != nil {
							return err
						}
						for lo, k := 0, 0; lo < length; lo, k = lo+chunk, k+1 {
							root := k % ranks
							e := rootEncoder(c, root)
							if err := src.GatherMarshalRangeTo(nil, root, lo, chunk, mask, e); err != nil {
								return err
							}
							var payload []byte
							if e != nil {
								payload = e.Bytes()
							}
							if err := dst.ScatterUnmarshalRange(nil, root, lo, chunk, payload); err != nil {
								return err
							}
						}
						return checkLocal(dst)
					})
					if n := owed(); n != 0 {
						t.Fatalf("%d chunk buffers rented and not returned at quiescence", n)
					}
					if ranks > 1 && rented() == crossed {
						t.Fatal("no chunk buffer was rented: the schedule never crossed a mailbox")
					}
				})
			}
		}
	}
}

// TestChunkPoolFaults drives the paths on which a buffer must not be returned
// — or must be returned by someone other than the usual consumer — and checks
// that none is returned twice (the balance would go negative) and that what
// stays out is exactly what is still referenced.
func TestChunkPoolFaults(t *testing.T) {
	const length = 4096

	// A contributor whose marshal fails returns the buffer it rented itself
	// and feeds the shared fail marker, which root must not pool.
	t.Run("fail-marker", func(t *testing.T) {
		wasPut := watchPuts(t)
		owed := outstanding()
		run(t, 3, func(c *rts.Comm) error {
			s, err := New(c, Float64, length, dist.Cyclic{BlockSize: 64})
			if err != nil {
				return err
			}
			s.FillFunc(ramp)
			if c.Rank() == 2 {
				s.local = s.local[:1] // its segments now fall outside local storage
			}
			err = s.GatherMarshalRangeTo(nil, 0, 0, 1024, 0, rootEncoder(c, 0))
			if c.Rank() == 0 && !errors.Is(err, ErrChunkFailed) {
				return fmt.Errorf("root: %v, want ErrChunkFailed", err)
			}
			if c.Rank() == 2 && !errors.Is(err, ErrIndex) {
				return fmt.Errorf("failing rank: %v, want ErrIndex", err)
			}
			// A poisoned scatter rents nothing and the owners return nothing.
			var payload []byte
			if c.Rank() == 0 {
				payload = FailMarker
			}
			if err := s.ScatterUnmarshalRange(nil, 0, 0, 1024, payload); !errors.Is(err, ErrChunkFailed) {
				return fmt.Errorf("rank %d poisoned scatter: %v, want ErrChunkFailed", c.Rank(), err)
			}
			return nil
		})
		if n := owed(); n != 0 {
			t.Fatalf("%d chunk buffers outstanding after the failed chunk", n)
		}
		if wasPut(&FailMarker[0]) {
			t.Fatal("the shared fail marker entered the pool")
		}
	})

	// A gather whose root never shows up: the part sits in root's mailbox, so
	// its renderer must not take it back. A root whose contributor never
	// shows up times out having rented nothing.
	t.Run("timeout", func(t *testing.T) {
		watchPuts(t)
		owed := outstanding()
		w := rts.NewWorld(2, rts.Options{RecvTimeout: 50 * time.Millisecond})
		defer w.Close()
		err := w.Run(func(c *rts.Comm) error {
			s, err := New(c, Float64, length, nil)
			if err != nil {
				return err
			}
			s.FillFunc(ramp)
			lane, err := c.Dup()
			if err != nil {
				return err
			}
			if c.Rank() == 1 { // owns [2048, 4096): a part for a root that never gathers
				return s.GatherMarshalRangeTo(nil, 0, 2048, 1024, 0, nil)
			}
			err = s.GatherMarshalRangeTo(lane, 0, 3072, 1024, 0, cdr.NewEncoder(cdr.NativeOrder))
			if !errors.Is(err, rts.ErrTimeout) {
				return fmt.Errorf("root without its contributor: %v, want a timeout", err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := owed(); n != 1 {
			t.Fatalf("%d chunk buffers outstanding, want exactly the one stranded in the mailbox", n)
		}
	})

	// Payloads the pool did not produce: a chunk in the other byte order (it
	// takes the decode path) and a caller's buffer that happens to have a pool
	// class's exact capacity. Scattering them must leave the caller's buffer
	// alone and the books balanced.
	t.Run("foreign", func(t *testing.T) {
		wasPut := watchPuts(t)
		owed := outstanding()
		vals := make([]float64, 1024)
		for i := range vals {
			vals[i] = ramp(i)
		}
		other := cdr.BigEndian
		if cdr.NativeOrder == cdr.BigEndian {
			other = cdr.LittleEndian
		}
		e := cdr.NewEncoder(other)
		e.WriteOctet(byte(other))
		e.WriteDoubles(vals)
		swapped := e.Bytes()
		classy := append(make([]byte, 0, 1<<13+bufpool.Headroom), MarshalChunk(Float64, vals)...)
		run(t, 4, func(c *rts.Comm) error {
			for _, spec := range []dist.Spec{dist.Block{}, dist.Cyclic{BlockSize: 32}, dist.Proportions{P: []int{0, 1, 0, 0}}} {
				for _, payload := range [][]byte{swapped, classy} {
					s, err := New(c, Float64, len(vals), spec)
					if err != nil {
						return err
					}
					if c.Rank() != 0 {
						payload = nil
					}
					if err := s.ScatterUnmarshalRange(nil, 0, 0, len(vals), payload); err != nil {
						return err
					}
					if err := checkLocal(s); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if n := owed(); n != 0 {
			t.Fatalf("%d chunk buffers outstanding after foreign payloads", n)
		}
		if wasPut(&classy[0]) || !bytes.Equal(classy, MarshalChunk(Float64, vals)) {
			t.Fatal("a caller-owned payload of pool-class capacity was pooled or scribbled")
		}
	})
}

// TestChunkPoolRunAhead is the in-flight safety stress, meant for -race: the
// mailbox hands buffers off without copying and sends never block, so the
// ranks that render run far ahead of the rank that consumes. Root verifies
// every gathered chunk byte for byte, and every owner its scattered share,
// while watchPuts scribbles over each buffer the moment it is returned — a
// buffer recycled while a mailbox or a reader still held it would show up as
// corrupted elements.
func TestChunkPoolRunAhead(t *testing.T) {
	const ranks, chunk, chunks = 3, 512, 400
	const length = chunk * chunks
	for _, tc := range []struct {
		name string
		spec dist.Spec
		mask uint8
	}{
		{"remote-owners", dist.Proportions{P: []int{0, 1, 1}}, 0},
		{"remote-owners-z", dist.Proportions{P: []int{0, 1, 1}}, zcodec.MaskAll},
		{"split-chunks", dist.Cyclic{BlockSize: 64}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			watchPuts(t)
			owed := outstanding()
			run(t, ranks, func(c *rts.Comm) error {
				src, err := New(c, Float64, length, tc.spec)
				if err != nil {
					return err
				}
				src.FillFunc(ramp)
				dst, err := New(c, Float64, length, tc.spec)
				if err != nil {
					return err
				}
				want := make([]float64, chunk)
				payloads := make([][]byte, chunks)
				// Gather: the contributors post all their parts while root is
				// still checking the first ones.
				for k := 0; k < chunks; k++ {
					e := rootEncoder(c, 0)
					if err := src.GatherMarshalRangeTo(nil, 0, k*chunk, chunk, tc.mask, e); err != nil {
						return err
					}
					if e == nil {
						continue
					}
					got, err := UnmarshalChunk(Float64, e.Bytes())
					if err != nil {
						return fmt.Errorf("chunk %d: %w", k, err)
					}
					for j := range want {
						want[j] = ramp(k*chunk + j)
					}
					if len(got) != chunk || !bytes.Equal(cdr.HostBytes(got), cdr.HostBytes(want)) {
						return fmt.Errorf("gathered chunk %d differs from the elements its owners hold", k)
					}
					payloads[k] = e.Bytes()
					runtime.Gosched()
				}
				// Scatter: root posts every piece while the owners lag.
				for k := 0; k < chunks; k++ {
					if err := dst.ScatterUnmarshalRange(nil, 0, k*chunk, chunk, payloads[k]); err != nil {
						return err
					}
					if c.Rank() != 0 {
						runtime.Gosched()
					}
				}
				return checkLocal(dst)
			})
			if n := owed(); n != 0 {
				t.Fatalf("%d chunk buffers outstanding after the stress", n)
			}
		})
	}
}
