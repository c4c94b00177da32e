package dseq

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/zcodec"
)

// envelopeStreams builds the float64 shapes the round-trip test sweeps:
// smooth ramps, random walks, plain noise, and runs of the bit patterns that
// historically break XOR codecs (NaN, ±Inf, denormals).
func envelopeStreams(n int) map[string][]float64 {
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

// int64Streams is envelopeStreams for the delta codec: a ramp, noise, a random
// walk, and runs of the extremes whose deltas overflow.
func int64Streams(n int) map[string][]int64 {
	r := rand.New(rand.NewSource(43))
	ramp := make([]int64, n)
	noise := make([]int64, n)
	walk := make([]int64, n)
	specials := make([]int64, n)
	var v int64
	for i := 0; i < n; i++ {
		ramp[i] = int64(i) * 7
		noise[i] = r.Int63() - r.Int63()
		v += int64(r.Intn(201) - 100)
		walk[i] = v
		specials[i] = []int64{math.MaxInt64, math.MinInt64, 0, -1}[r.Intn(4)]
	}
	return map[string][]int64{"ramp": ramp, "noise": noise, "walk": walk, "specials": specials}
}

// roundTrip checks that a chunk of vals rendered under the codec's mask
// decodes to exactly vals through both decoders, bit for bit. A ramp must
// travel as an envelope of the codec.
func roundTrip[T any](t *testing.T, c Codec[T], name string, vals []T, bits func(T) uint64) {
	t.Helper()
	p := marshalZ(c, vals, zcodec.MaskAll)
	// Noisy shapes may legitimately fall back to raw; the smooth ramp must
	// compress.
	if name == "ramp" && (!IsCompressedChunk(p) || ChunkCodec(p) != c.CompressID) {
		t.Fatalf("%s %s/%d: header % x, want a %v envelope", c.Name, name, len(vals), p[:compHeaderLen], c.CompressID)
	}
	got, err := UnmarshalChunk(c, p)
	if err != nil || len(got) != len(vals) {
		t.Fatalf("%s %s/%d: decode: %d elems, %v", c.Name, name, len(vals), len(got), err)
	}
	into := make([]T, len(vals))
	if k, err := UnmarshalChunkInto(c, p, into); err != nil || k != len(vals) {
		t.Fatalf("%s %s/%d: UnmarshalChunkInto = %d, %v", c.Name, name, len(vals), k, err)
	}
	for i := range vals {
		if want := bits(vals[i]); bits(got[i]) != want || bits(into[i]) != want {
			t.Fatalf("%s %s/%d: [%d] %x / %x, want %x", c.Name, name, len(vals), i, bits(got[i]), bits(into[i]), want)
		}
	}
}

// TestEnvelopeRoundTrip is the envelope soundness property: a chunk decodes to
// exactly its input, bit for bit, across random float64 streams including
// NaN/±Inf/denormal runs.
func TestEnvelopeRoundTrip(t *testing.T) {
	for _, n := range []int{8192, 12305, 1 << 16} {
		for name, vals := range envelopeStreams(n) {
			roundTrip(t, Float64, name, vals, math.Float64bits)
		}
	}
}

// TestEnvelopeRoundTripInt64 is the same property for the delta codec, on
// int64 streams including the extremes whose deltas overflow.
func TestEnvelopeRoundTripInt64(t *testing.T) {
	for _, n := range []int{8192, 12305, 1 << 16} {
		for name, vals := range int64Streams(n) {
			roundTrip(t, Int64, name, vals, func(v int64) uint64 { return uint64(v) })
		}
	}
}

// TestEnvelopeGolden pins the envelope byte for byte, so the next format
// change is a visible diff: marker, codec, then the zcodec block (count, first
// value raw, one zero bit per repeat).
func TestEnvelopeGolden(t *testing.T) {
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = 1
	}
	want := []byte{
		0x02, 0x02, // marker, xor
		0x10, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0, 0,
	}
	if p := marshalZ(Float64, vals, zcodec.MaskAll); !bytes.Equal(p, want) {
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
	if p := marshalZ(Int32, i32, zcodec.Supported); IsCompressedChunk(p) {
		t.Fatal("16 int32s (64 B) compressed; byte-aware gate should keep them raw")
	}
	if p := marshalZ(Float64, f64, zcodec.Supported); !IsCompressedChunk(p) {
		t.Fatal("16 float64s (128 B) stayed raw; gate regressed past the old threshold")
	}
	i32big := make([]int32, 32)
	for i := range i32big {
		i32big[i] = int32(i)
	}
	if p := marshalZ(Int32, i32big, zcodec.Supported); !IsCompressedChunk(p) {
		t.Fatal("32 int32s (128 B) stayed raw")
	}
	// Types without a block codec always travel raw no matter the mask.
	strs := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q"}
	if p := marshalZ(String, strs, zcodec.Supported); IsCompressedChunk(p) {
		t.Fatal("string chunk compressed")
	}
}

// TestEnvelopeRejectsCorruption walks corrupted and truncated envelopes
// through the decoders: every mutation must error or decode to a value set,
// never panic, and every structural fault must be refused — a cut, a byte
// behind the block, another codec, a destination too short, and a count no
// block of that size holds.
func TestEnvelopeRejectsCorruption(t *testing.T) {
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(i)
	}
	p := marshalZ(Float64, vals, zcodec.MaskAll)
	if !IsCompressedChunk(p) {
		t.Fatal("ramp stayed raw")
	}
	dst := make([]float64, len(vals))
	for cut := 1; cut < len(p); cut++ {
		if _, err := UnmarshalChunkInto(Float64, p[:cut], dst); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", cut, len(p))
		}
		if _, err := UnmarshalChunk(Float64, p[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly (allocating)", cut, len(p))
		}
	}
	// A byte behind the block is refused by both decoders.
	long := append(bytes.Clone(p), 0)
	if _, err := UnmarshalChunkInto(Float64, long, dst); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := UnmarshalChunk(Float64, long); err == nil {
		t.Fatal("trailing byte accepted (allocating)")
	}
	// Wrong codec octet must be rejected before the block decodes.
	bad := bytes.Clone(p)
	bad[1] = byte(zcodec.Delta)
	if _, err := UnmarshalChunkInto(Float64, bad, dst); err == nil {
		t.Fatal("mismatched codec accepted")
	}
	// Random bit flips: errors are fine, panics are not.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		b := bytes.Clone(p)
		for f := 0; f < 1+r.Intn(4); f++ {
			b[r.Intn(len(b))] ^= byte(1 << r.Intn(8))
		}
		UnmarshalChunkInto(Float64, b, dst) //nolint:errcheck — must not panic
	}
	// A destination too small for the block's count must error.
	if _, err := UnmarshalChunkInto(Float64, p, dst[:len(vals)-1]); err == nil {
		t.Fatal("oversized chunk accepted into short destination")
	}
	// More than 8 elements per block byte is structural damage, refused before
	// the allocating decoder reserves them.
	forged := []byte{0x02, byte(zcodec.XOR), 0xff, 0xff, 0xff, 0x3f, 0}
	if _, err := UnmarshalChunk(Float64, forged); err != zcodec.ErrCorrupt {
		t.Fatalf("a 5-byte block claiming 2^27-1 elements: err = %v, want ErrCorrupt", err)
	}
}
