package cdr

import (
	"math"
	"math/rand"
	"testing"
)

// refWriteDoubles is the per-element reference encoding, independent of the
// block fast paths, used to pin down the wire bytes they must produce.
func refWriteDoubles(e *Encoder, v []float64) {
	e.WriteULong(uint32(len(v)))
	e.pad(8)
	for _, f := range v {
		e.buf = e.order.order().AppendUint64(e.buf, math.Float64bits(f))
	}
}

func refWriteLongs(e *Encoder, v []int32) {
	e.WriteULong(uint32(len(v)))
	for _, x := range v {
		e.buf = e.order.order().AppendUint32(e.buf, uint32(x))
	}
}

func randomDoubles(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestNativeFastPathBytes checks that the memcpy fast path and the
// per-element loop produce identical wire bytes in both stream orders (only
// one of which takes the fast path on any given machine).
func TestNativeFastPathBytes(t *testing.T) {
	for _, ord := range []ByteOrder{LittleEndian, BigEndian} {
		for _, n := range []int{0, 1, 7, 64, 1023} {
			doubles := randomDoubles(n, int64(n))
			fast := NewEncoder(ord)
			fast.WriteDoubles(doubles)
			ref := NewEncoder(ord)
			refWriteDoubles(ref, doubles)
			if string(fast.Bytes()) != string(ref.Bytes()) {
				t.Errorf("%v doubles n=%d: fast path bytes differ from reference", ord, n)
			}

			longs := make([]int32, n)
			for i := range longs {
				longs[i] = int32(i*2654435761 + 1)
			}
			fast.Reset()
			fast.WriteLongs(longs)
			ref.Reset()
			refWriteLongs(ref, longs)
			if string(fast.Bytes()) != string(ref.Bytes()) {
				t.Errorf("%v longs n=%d: fast path bytes differ from reference", ord, n)
			}
		}
	}
}

// TestCrossOrderBlockRoundTrip drives both orders through encode and decode,
// so whatever the host order is, both the memcpy path and the fallback loops
// are exercised, including the foreign-order stream through the native
// decoder (receiver-makes-right).
func TestCrossOrderBlockRoundTrip(t *testing.T) {
	doubles := randomDoubles(513, 42)
	for _, encOrd := range []ByteOrder{LittleEndian, BigEndian} {
		e := NewEncoder(encOrd)
		e.WriteDoubles(doubles)

		got, err := NewDecoder(e.Bytes(), encOrd).ReadDoubles()
		if err != nil {
			t.Fatalf("%v: %v", encOrd, err)
		}
		if len(got) != len(doubles) {
			t.Fatalf("%v: got %d doubles, want %d", encOrd, len(got), len(doubles))
		}
		for i := range got {
			if got[i] != doubles[i] {
				t.Fatalf("%v: element %d: got %v, want %v", encOrd, i, got[i], doubles[i])
			}
		}

		dst := make([]float64, len(doubles))
		n, err := NewDecoder(e.Bytes(), encOrd).ReadDoublesInto(dst)
		if err != nil {
			t.Fatalf("%v into: %v", encOrd, err)
		}
		if n != len(doubles) {
			t.Fatalf("%v into: got %d, want %d", encOrd, n, len(doubles))
		}
		for i := range dst {
			if dst[i] != doubles[i] {
				t.Fatalf("%v into: element %d: got %v, want %v", encOrd, i, dst[i], doubles[i])
			}
		}
	}
}

func TestReadLongsInto(t *testing.T) {
	longs := []int32{0, -1, math.MaxInt32, math.MinInt32, 7}
	for _, ord := range []ByteOrder{LittleEndian, BigEndian} {
		e := NewEncoder(ord)
		e.WriteLongs(longs)
		dst := make([]int32, len(longs))
		n, err := NewDecoder(e.Bytes(), ord).ReadLongsInto(dst)
		if err != nil || n != len(longs) {
			t.Fatalf("%v: n=%d err=%v", ord, n, err)
		}
		for i := range dst {
			if dst[i] != longs[i] {
				t.Fatalf("%v: element %d: got %d, want %d", ord, i, dst[i], longs[i])
			}
		}
	}
}

// TestReadIntoTooSmall checks the decode-into variants refuse a destination
// smaller than the stream's count instead of truncating silently.
func TestReadIntoTooSmall(t *testing.T) {
	e := NewEncoder(NativeOrder)
	e.WriteDoubles([]float64{1, 2, 3})
	if _, err := NewDecoder(e.Bytes(), NativeOrder).ReadDoublesInto(make([]float64, 2)); err == nil {
		t.Fatal("ReadDoublesInto accepted an undersized destination")
	}
	e.Reset()
	e.WriteLongs([]int32{1, 2, 3})
	if _, err := NewDecoder(e.Bytes(), NativeOrder).ReadLongsInto(make([]int32, 2)); err == nil {
		t.Fatal("ReadLongsInto accepted an undersized destination")
	}
}

// TestMarkOrigin checks alignment is computed relative to the mark, the
// mechanism that lets a message header and an aligned CDR body share one
// buffer.
func TestMarkOrigin(t *testing.T) {
	e := NewEncoder(NativeOrder)
	e.WriteRaw(make([]byte, 12)) // unaligned header-sized preamble
	e.MarkOrigin()
	e.WriteULong(0xdeadbeef) // must land immediately: position 12 is origin 0
	if e.Len() != 16 {
		t.Fatalf("ULong after mark at 12: len=%d, want 16 (no padding)", e.Len())
	}
	e.WriteDouble(1.5) // origin offset 4 → 4 bytes of padding to reach 8
	if e.Len() != 12+16 {
		t.Fatalf("Double after mark: len=%d, want 28", e.Len())
	}

	// The body bytes after the preamble must be exactly what a fresh
	// encoder produces.
	ref := NewEncoder(NativeOrder)
	ref.WriteULong(0xdeadbeef)
	ref.WriteDouble(1.5)
	if string(e.Bytes()[12:]) != string(ref.Bytes()) {
		t.Fatal("body encoded after MarkOrigin differs from a fresh stream")
	}

	// Reset clears the mark.
	e.Reset()
	e.WriteOctet(1)
	e.WriteULong(2)
	if e.Len() != 8 {
		t.Fatalf("after Reset: len=%d, want 8 (1 octet + 3 pad + 4)", e.Len())
	}
}

// TestGrowAmortized checks Grow at least doubles capacity, the fix for the
// O(n²) exact-size growth.
func TestGrowAmortized(t *testing.T) {
	e := NewEncoder(NativeOrder)
	e.WriteRaw(make([]byte, 100))
	c := e.Cap()
	e.Grow(c - e.Len() + 1) // one byte past the free space forces a reallocation
	if e.Cap() < 2*c {
		t.Fatalf("growing past cap %d gave cap %d, want >= %d", c, e.Cap(), 2*c)
	}
	// A large request still lands in one step.
	e.Grow(1 << 20)
	if e.Cap() < e.Len()+1<<20 {
		t.Fatalf("Grow(1MiB): cap %d below len+n", e.Cap())
	}
}

// TestDoublesRoundTripAllocs is the allocation-regression guard for the CDR
// hot path: a reused encoder plus decode-into must not allocate at all.
func TestDoublesRoundTripAllocs(t *testing.T) {
	src := randomDoubles(4096, 7)
	dst := make([]float64, len(src))
	e := NewEncoder(NativeOrder)
	e.WriteDoubles(src) // warm the buffer so growth is out of the measured loop
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		e.WriteDoubles(src)
		d := Decoder{buf: e.Bytes(), order: NativeOrder}
		if _, err := d.ReadDoublesInto(dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("doubles round trip allocates %.1f times per run, want 0", allocs)
	}
	if dst[100] != src[100] {
		t.Fatal("round trip corrupted data")
	}
}
