package bufpool

import (
	"runtime"
	"sync"
	"testing"
)

// TestClassGeometry pins the one geometry: a power-of-two payload plus
// Headroom rents its own class, one byte more the next, everything under the
// floor the smallest, and anything over the ceiling is not the pool's.
func TestClassGeometry(t *testing.T) {
	var p Pool
	for _, tc := range []struct {
		name    string
		n, want int
	}{
		{"zero", 0, 512 + Headroom},
		{"tiny", 1, 512 + Headroom},
		{"floor exactly", 512 + Headroom, 512 + Headroom},
		{"floor plus one", 512 + Headroom + 1, 1024 + Headroom},
		{"64 KiB chunk", 64 << 10, 64<<10 + Headroom},
		{"64 KiB + headroom rents the 64 KiB class", 64<<10 + Headroom, 64<<10 + Headroom},
		{"64 KiB + headroom + 1", 64<<10 + Headroom + 1, 128<<10 + Headroom},
		{"ceiling exactly", 4<<20 + Headroom, 4<<20 + Headroom},
	} {
		b := p.Rent(tc.n)
		if len(b) != 0 || cap(b) != tc.want {
			t.Errorf("%s: Rent(%d) has len %d cap %d, want an empty buffer of cap %d", tc.name, tc.n, len(b), cap(b), tc.want)
		}
		p.Return(b)
	}
	if st := p.Stats(); st.Outstanding() != 0 || st.Returns != 8 {
		t.Fatalf("ledger after eight round trips: %+v", st)
	}
	over := p.Rent(4<<20 + Headroom + 1)
	if cap(over) != 4<<20+Headroom+1 {
		t.Fatalf("oversize Rent has cap %d, want exactly the request", cap(over))
	}
	if st := p.Stats(); st.Hits+st.Misses != 8 {
		t.Fatalf("an oversize Rent entered the ledger: %+v", st)
	}
}

// TestRecognition: Return takes a whole pool buffer however it was re-sliced
// from the front, and leaves everything else — and the ledger — alone.
func TestRecognition(t *testing.T) {
	var p Pool
	var seen [][]byte
	p.OnReturn = func(b []byte) { seen = append(seen, b) }

	grown := append(p.Rent(600), make([]byte, 2000)...) // outgrew the 1 KiB class
	for name, b := range map[string][]byte{
		"nil":                        nil,
		"oversize":                   p.Rent(4<<20 + Headroom + 1),
		"append-grown":               grown,
		"sub-sliced from the middle": p.Rent(600)[8:600],
		"capacity clipped":           p.Rent(600)[:10:10],
		"foreign":                    make([]byte, 100, 1000),
		"foreign power of two":       make([]byte, 1024),
	} {
		before := p.Stats()
		p.Return(b)
		if p.Stats() != before {
			t.Errorf("%s: moved the ledger %+v -> %+v", name, before, p.Stats())
		}
	}
	if len(seen) != 0 {
		t.Fatalf("%d unrecognised buffers reached the pool", len(seen))
	}

	whole := p.Rent(600)
	whole = append(whole, 1, 2, 3)
	p.Return(whole[:1])
	if len(seen) != 1 || len(seen[0]) != 1024+Headroom || &seen[0][0] != &whole[0] {
		t.Fatal("a pool buffer re-sliced from the front was not taken back at full capacity")
	}
	// Three buffers were rented and deliberately lost above (grown, middle,
	// clipped): the ledger says so.
	if got := p.Stats().Outstanding(); got != 3 {
		t.Fatalf("%d on loan, want the 3 that were made unrecognisable", got)
	}
}

// TestLedger checks the one counting rule — borrowed − returned = on loan —
// and that instances keep separate books.
func TestLedger(t *testing.T) {
	var p, q Pool
	var out [][]byte
	for i := 0; i < 5; i++ {
		out = append(out, p.Rent(1000))
	}
	if st := p.Stats(); st.Misses != 5 || st.Hits != 0 || st.Outstanding() != 5 {
		t.Fatalf("after five cold rents: %+v", st)
	}
	for i, b := range out[:3] {
		p.Return(b)
		if got := p.Stats().Outstanding(); got != int64(4-i) {
			t.Fatalf("%d on loan after %d returns", got, i+1)
		}
	}
	if q.Stats() != (Stats{}) {
		t.Fatalf("a second instance saw the first one's traffic: %+v", q.Stats())
	}
	// A returned buffer is rented out again. sync.Pool may drop any one of
	// them (it does, at random, under -race), never all of a hundred.
	for i := 0; i < 100 && p.Stats().Hits == 0; i++ {
		p.Return(p.Rent(1000))
	}
	st := p.Stats()
	if st.Hits == 0 {
		t.Fatal("no Rent was ever served from the pool")
	}
	if st.Outstanding() != 2 || st.Hits+st.Misses-st.Returns != 2 {
		t.Fatalf("ledger arithmetic: %+v", st)
	}
}

// TestHammer is the on-loan safety stress, meant for -race: goroutines rent,
// fill a buffer with their own mark, yield, and check the mark before giving
// the buffer back, while the return hook scribbles over every buffer the
// moment it re-enters the pool. A buffer handed to two renters at once, or
// recycled while one still held it, shows as a foreign mark.
func TestHammer(t *testing.T) {
	const workers, rounds, scribble = 8, 250, 0xDB
	var p Pool
	p.OnReturn = func(b []byte) {
		for i := range b {
			b[i] = scribble
		}
	}
	sizes := []int{1, 600, 5000, 64<<10 + Headroom}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mark byte) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := sizes[(r+int(mark))%len(sizes)]
				b := p.Rent(n)[:n]
				for i := range b {
					b[i] = mark
				}
				runtime.Gosched()
				for i := range b {
					if b[i] != mark {
						t.Errorf("worker %d: byte %d of a buffer on loan reads %#x", mark, i, b[i])
						return
					}
				}
				p.Return(b)
			}
		}(byte(w))
	}
	wg.Wait()
	if st := p.Stats(); st.Outstanding() != 0 || st.Returns != workers*rounds {
		t.Fatalf("ledger after the stress: %+v", st)
	}
}
