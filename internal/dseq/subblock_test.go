package dseq

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/zcodec"
)

// subBlockStreams builds the float64 shapes the property test sweeps:
// smooth ramps, random walks, plain noise, and runs of the bit
// patterns that historically break XOR codecs (NaN, ±Inf, denormals).
func subBlockStreams(n int) map[string][]float64 {
	r := rand.New(rand.NewSource(42))
	ramp := make([]float64, n)
	noise := make([]float64, n)
	walk := make([]float64, n)
	specials := make([]float64, n)
	v := 0.0
	for i := 0; i < n; i++ {
		ramp[i] = float64(i) * 0.5
		noise[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
		v += r.Float64() - 0.5
		walk[i] = v
		switch r.Intn(6) {
		case 0:
			specials[i] = math.NaN()
		case 1:
			specials[i] = math.Inf(1 - 2*r.Intn(2))
		case 2:
			specials[i] = math.SmallestNonzeroFloat64 * float64(1+r.Intn(100)) // denormal
		case 3:
			specials[i] = math.Copysign(0, -1)
		default:
			specials[i] = r.NormFloat64()
		}
	}
	return map[string][]float64{"ramp": ramp, "noise": noise, "walk": walk, "specials": specials}
}

// envelopeNsub reads the block count of a compressed envelope.
func envelopeNsub(p []byte) int { return int(binary.LittleEndian.Uint16(p[2:])) }

// TestSubBlockMatchesSerial is the envelope soundness property: whatever
// block count the chunk was split into — one block (the serial case) up to
// sixteen encoded in parallel — it decodes to exactly the input, bit for
// bit, across random float64 streams including NaN/±Inf/denormal runs, and
// under a different parallelism than it was encoded with.
func TestSubBlockMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, n := range []int{2 * subBlockMinElems, 3*subBlockMinElems + 17, 1 << 16} {
		for name, vals := range subBlockStreams(n) {
			for _, procs := range []int{1, 2, 3, 4, 16} {
				runtime.GOMAXPROCS(procs)
				p := MarshalChunkZ(Float64, vals, zcodec.MaskAll)
				// Noisy shapes may legitimately fall back to raw; the
				// smooth ramp must compress, into the expected split.
				if want := min(procs, n/subBlockMinElems); name == "ramp" &&
					(!IsCompressedChunk(p) || envelopeNsub(p) != want || ChunkCodec(p) != zcodec.XOR) {
					t.Fatalf("%s/%d/procs=%d: header % x, want %d xor blocks", name, n, procs, p[:compHeaderLen], want)
				}
				runtime.GOMAXPROCS(2)
				got, err := UnmarshalChunk(Float64, p)
				if err != nil || len(got) != n {
					t.Fatalf("%s/%d/procs=%d: decode: %d elems, %v", name, n, procs, len(got), err)
				}
				into := make([]float64, n)
				if k, err := UnmarshalChunkInto(Float64, p, into); err != nil || k != n {
					t.Fatalf("%s/%d/procs=%d: UnmarshalChunkInto = %d, %v", name, n, procs, k, err)
				}
				for i := range vals {
					want := math.Float64bits(vals[i])
					if math.Float64bits(got[i]) != want || math.Float64bits(into[i]) != want {
						t.Fatalf("%s/%d/procs=%d: [%d] %x / %x, want %x",
							name, n, procs, i, math.Float64bits(got[i]), math.Float64bits(into[i]), want)
					}
				}
			}
		}
	}
}

// TestSubBlockSplit pins what decides the block count: the chunk's size and
// GOMAXPROCS, nothing negotiated.
func TestSubBlockSplit(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	vals := make([]float64, 2*subBlockMinElems)
	for i := range vals {
		vals[i] = float64(i)
	}
	if p := MarshalChunkZ(Float64, vals, zcodec.MaskAll); !bytes.Equal(p[:compHeaderLen], []byte{0x02, byte(zcodec.XOR), 2, 0}) {
		t.Fatalf("two blocks' worth of elements: header % x", p[:compHeaderLen])
	}
	// Below two blocks' worth the chunk is one block.
	if p := MarshalChunkZ(Float64, vals[:2*subBlockMinElems-1], zcodec.MaskAll); envelopeNsub(p) != 1 {
		t.Fatalf("undersized chunk split into %d blocks", envelopeNsub(p))
	}
	runtime.GOMAXPROCS(1)
	if p := MarshalChunkZ(Float64, vals, zcodec.MaskAll); envelopeNsub(p) != 1 {
		t.Fatalf("one processor split the chunk into %d blocks", envelopeNsub(p))
	}
}

// TestEnvelopeGolden pins the envelope byte for byte, so the next format
// change is a visible diff: marker, codec, block count, then per block its
// length and the zcodec block (count, first value raw, one zero bit per
// repeat).
func TestEnvelopeGolden(t *testing.T) {
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = 1
	}
	want := []byte{
		0x02, 0x02, 0x01, 0x00, // marker, xor, one block
		0x0b, 0x00, 0x00, 0x00, // 11 bytes
		0x10, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0, 0,
	}
	if p := MarshalChunkZ(Float64, vals, zcodec.MaskAll); !bytes.Equal(p, want) {
		t.Fatalf("envelope\n% x\nwant\n% x", p, want)
	}
	got, err := UnmarshalChunk(Float64, want)
	if err != nil || len(got) != 16 || got[0] != 1 || got[15] != 1 {
		t.Fatalf("golden envelope decoded to %v, %v", got, err)
	}
}

// TestByteAwareGate pins the compMinBytes rule for tiny mixed-type
// chunks: 16 int32s is 64 B of payload and must stay raw, while the
// same element count of float64 (128 B) clears the bar.
func TestByteAwareGate(t *testing.T) {
	i32 := make([]int32, 16)
	f64 := make([]float64, 16)
	for i := 0; i < 16; i++ {
		i32[i] = int32(i)
		f64[i] = float64(i)
	}
	if p := MarshalChunkZ(Int32, i32, zcodec.Supported); IsCompressedChunk(p) {
		t.Fatal("16 int32s (64 B) compressed; byte-aware gate should keep them raw")
	}
	if p := MarshalChunkZ(Float64, f64, zcodec.Supported); !IsCompressedChunk(p) {
		t.Fatal("16 float64s (128 B) stayed raw; gate regressed past the old threshold")
	}
	i32big := make([]int32, 32)
	for i := range i32big {
		i32big[i] = int32(i)
	}
	if p := MarshalChunkZ(Int32, i32big, zcodec.Supported); !IsCompressedChunk(p) {
		t.Fatal("32 int32s (128 B) stayed raw")
	}
	// Types without a block codec always travel raw no matter the mask.
	strs := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q"}
	if p := MarshalChunkZ(String, strs, zcodec.Supported); IsCompressedChunk(p) {
		t.Fatal("string chunk compressed")
	}
}

// TestSubBlockRejectsCorruption walks corrupted and truncated multi-block
// envelopes through the decoders: every mutation must error or decode
// to a value set, never panic, and structural damage to the frame
// table must be detected.
func TestSubBlockRejectsCorruption(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	vals := make([]float64, 2*subBlockMinElems)
	for i := range vals {
		vals[i] = float64(i)
	}
	p := MarshalChunkZ(Float64, vals, zcodec.MaskAll)
	if envelopeNsub(p) != 2 {
		t.Fatalf("%d blocks, want 2", envelopeNsub(p))
	}
	dst := make([]float64, len(vals))
	for cut := 1; cut < len(p); cut += 97 {
		if _, err := UnmarshalChunkInto(Float64, p[:cut], dst); err == nil && cut < len(p) {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	// Trailing garbage after the last block must be rejected.
	if _, err := UnmarshalChunkInto(Float64, append(append([]byte(nil), p...), 0xAA), dst); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Wrong codec octet must be rejected before any block decodes.
	bad := append([]byte(nil), p...)
	bad[1] = byte(zcodec.Delta)
	if _, err := UnmarshalChunkInto(Float64, bad, dst); err == nil {
		t.Fatal("mismatched codec accepted")
	}
	// Random bit flips: errors are fine, panics are not.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		b := append([]byte(nil), p...)
		for f := 0; f < 1+r.Intn(4); f++ {
			b[r.Intn(len(b))] ^= byte(1 << r.Intn(8))
		}
		UnmarshalChunkInto(Float64, b, dst) //nolint:errcheck — must not panic
	}
	// A destination too small for the declared totals must error.
	if _, err := UnmarshalChunkInto(Float64, p, dst[:len(vals)-1]); err == nil {
		t.Fatal("oversized chunk accepted into short destination")
	}
	// Block counts outside 1..maxSubBlocks, and an element count no block of
	// that size can hold, are structural damage.
	for _, nsub := range []uint16{0, maxSubBlocks + 1} {
		b := append([]byte(nil), p...)
		binary.LittleEndian.PutUint16(b[2:], nsub)
		if _, err := UnmarshalChunk(Float64, b); err == nil {
			t.Fatalf("block count %d accepted", nsub)
		}
	}
	forged := []byte{0x02, byte(zcodec.XOR), 1, 0, 5, 0, 0, 0, 0xff, 0xff, 0xff, 0x3f, 0}
	if _, err := UnmarshalChunk(Float64, forged); err == nil {
		t.Fatal("a 5-byte block claiming 2^27 elements accepted")
	}
}

// TestSubBlockInt64 covers the delta codec through a multi-block envelope.
func TestSubBlockInt64(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	vals := make([]int64, 3*subBlockMinElems)
	for i := range vals {
		vals[i] = int64(i) * 7
	}
	p := MarshalChunkZ(Int64, vals, zcodec.Supported)
	if envelopeNsub(p) != 3 || ChunkCodec(p) != zcodec.Delta {
		t.Fatalf("header % x, want 3 delta blocks", p[:compHeaderLen])
	}
	got, err := UnmarshalChunk(Int64, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("[%d] %d != %d", i, got[i], vals[i])
		}
	}
}
