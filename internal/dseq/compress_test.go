package dseq

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/rts"
	"repro/internal/zcodec"
)

func TestMarshalChunkZRoundTrip(t *testing.T) {
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	p := MarshalChunkZ(Float64, vals, zcodec.MaskAll)
	if !IsCompressedChunk(p) {
		t.Fatalf("smooth chunk did not compress (payload %d bytes)", len(p))
	}
	if len(p) >= 8*len(vals) {
		t.Fatalf("compressed chunk %d bytes >= raw %d", len(p), 8*len(vals))
	}
	if id := ChunkCodec(p); id != zcodec.XOR {
		t.Fatalf("ChunkCodec = %v, want xor", id)
	}
	if id := ChunkCodec(MarshalChunk(Float64, vals)); id != zcodec.None {
		t.Fatalf("ChunkCodec of a raw chunk = %v", id)
	}
	got, err := UnmarshalChunk(Float64, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("[%d] %v != %v", i, got[i], vals[i])
		}
	}
	dst := make([]float64, len(vals))
	m, err := UnmarshalChunkInto(Float64, p, dst)
	if err != nil || m != len(vals) {
		t.Fatalf("UnmarshalChunkInto = %d, %v", m, err)
	}
	for i := range vals {
		if dst[i] != vals[i] {
			t.Fatalf("into[%d] %v != %v", i, dst[i], vals[i])
		}
	}
}

func TestMarshalChunkZMaskGating(t *testing.T) {
	vals := make([]float64, 256)
	for i := range vals {
		vals[i] = float64(i)
	}
	if p := MarshalChunkZ(Float64, vals, 0); IsCompressedChunk(p) {
		t.Fatal("mask 0 produced a compressed chunk")
	}
	// The float codec needs the XOR bit; a delta-only mask leaves doubles
	// raw.
	if p := MarshalChunkZ(Float64, vals, zcodec.MaskDelta); IsCompressedChunk(p) {
		t.Fatal("delta-only mask compressed a double chunk")
	}
	if p := MarshalChunkZ(Float64, vals[:4], zcodec.MaskAll); IsCompressedChunk(p) {
		t.Fatal("tiny chunk compressed below compMinElems")
	}
	// String codec has no compression hooks: any mask stays raw.
	if p := MarshalChunkZ(String, []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q"}, zcodec.MaskAll); IsCompressedChunk(p) {
		t.Fatal("string chunk compressed")
	}
}

func TestMarshalChunkZIncompressibleFallsBack(t *testing.T) {
	// Values whose bit patterns share nothing XOR badly; the envelope
	// would exceed the raw bytes, so the chunk must fall back to raw.
	vals := make([]float64, 512)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = math.Float64frombits(x)
	}
	p := MarshalChunkZ(Float64, vals, zcodec.MaskAll)
	if IsCompressedChunk(p) {
		t.Fatalf("incompressible chunk stayed compressed (%d bytes vs %d raw)", len(p), 8*len(vals))
	}
	got, err := UnmarshalChunk(Float64, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("[%d] mismatch after raw fallback", i)
		}
	}
}

func TestMarshalChunkZIntCodecs(t *testing.T) {
	i32 := make([]int32, 300)
	i64 := make([]int64, 300)
	for i := range i32 {
		i32[i] = int32(i * 7)
		i64[i] = int64(i) * 1_000_003
	}
	p32 := MarshalChunkZ(Int32, i32, zcodec.MaskAll)
	if !IsCompressedChunk(p32) {
		t.Fatal("int32 ramp did not compress")
	}
	got32, err := UnmarshalChunk(Int32, p32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range i32 {
		if got32[i] != i32[i] {
			t.Fatalf("int32[%d] %d != %d", i, got32[i], i32[i])
		}
	}
	p64 := MarshalChunkZ(Int64, i64, zcodec.MaskAll)
	if !IsCompressedChunk(p64) {
		t.Fatal("int64 ramp did not compress")
	}
	dst := make([]int64, len(i64))
	if m, err := UnmarshalChunkInto(Int64, p64, dst); err != nil || m != len(i64) {
		t.Fatalf("UnmarshalChunkInto = %d, %v", m, err)
	}
	for i := range i64 {
		if dst[i] != i64[i] {
			t.Fatalf("int64[%d] %d != %d", i, dst[i], i64[i])
		}
	}
}

func TestCompressedChunkRejectsCorruption(t *testing.T) {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i)
	}
	p := MarshalChunkZ(Float64, vals, zcodec.MaskAll)
	if !IsCompressedChunk(p) {
		t.Fatal("setup: chunk not compressed")
	}
	// Wrong codec octet.
	bad := append([]byte(nil), p...)
	bad[1] = byte(zcodec.Delta)
	if _, err := UnmarshalChunk(Float64, bad); err == nil {
		t.Fatal("wrong codec id decoded")
	}
	// Truncation mid-block.
	if _, err := UnmarshalChunk(Float64, p[:len(p)/2]); err == nil {
		t.Fatal("truncated envelope decoded")
	}
	// Destination too small.
	if _, err := UnmarshalChunkInto(Float64, p, make([]float64, 8)); err == nil {
		t.Fatal("oversized chunk decoded into small destination")
	}
	// The raw decoder sees the envelope marker as a bad order flag:
	// openChunk must reject, not misdecode.
	if _, err := openChunk("double", p); err == nil {
		t.Fatal("openChunk accepted a compressed envelope")
	}
}

// TestStreamRangeCompressed runs the collective gather/scatter range
// methods with a compression mask across layouts where chunks are
// rank-local (compressed by their owners), split (assembled and
// compressed at root), and root-owned.
func TestStreamRangeCompressed(t *testing.T) {
	const length = 4096
	for _, spec := range []dist.Spec{nil, dist.Cyclic{BlockSize: 32}} {
		name := "block"
		if spec != nil {
			name = "cyclic"
		}
		t.Run(name, func(t *testing.T) {
			run(t, 4, func(c *rts.Comm) error {
				src, err := New(c, Float64, length, spec)
				if err != nil {
					return err
				}
				src.FillFunc(func(g int) float64 { return float64(g) })
				dst, err := New(c, Float64, length, spec)
				if err != nil {
					return err
				}
				// Walk a chunk schedule through gather+scatter with
				// compression on, the transfer engine's shape.
				const chunk = 1024
				for lo := 0; lo < length; lo += chunk {
					n := min(chunk, length-lo)
					p, err := src.GatherMarshalRangeZ(nil, 0, lo, n, zcodec.MaskAll)
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						if name == "block" && !IsCompressedChunk(p) {
							t.Errorf("block chunk [%d,%d) not compressed", lo, lo+n)
						}
					} else if p != nil {
						t.Errorf("rank %d received a payload", c.Rank())
					}
					if err := dst.ScatterUnmarshalRange(nil, 0, lo, n, p); err != nil {
						return err
					}
				}
				for i, v := range dst.LocalData() {
					if v != src.LocalData()[i] {
						t.Errorf("rank %d local[%d] = %v, want %v", c.Rank(), i, v, src.LocalData()[i])
						break
					}
				}
				return nil
			})
		})
	}
}
