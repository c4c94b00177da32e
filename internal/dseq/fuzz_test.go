package dseq

import (
	"math"
	"slices"
	"testing"

	"repro/internal/zcodec"
)

// FuzzChunkEnvelope throws arbitrary bytes at the chunk decoders behind the
// envelope marker. Whatever the input, decoding must not panic, must store
// no more elements than the destination holds, must agree with the
// allocating decoder, and must be a function of the payload's bytes alone: a
// length or offset in a forged frame table that reached past the payload
// would read the 0xFF tail the second run lays behind it and decode
// differently.
func FuzzChunkEnvelope(f *testing.F) {
	golden := []byte{0x02, 0x02, 0x01, 0x00, 0x0b, 0x00, 0x00, 0x00, 0x10, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0, 0}
	f.Add(golden, uint8(16))
	f.Add(golden, uint8(15))                                                     // one element short of the envelope's count
	f.Add(golden[:len(golden)-1], uint8(16))                                     // cut inside the block
	f.Add(golden[:6], uint8(16))                                                 // cut inside the length
	f.Add(append(slices.Clone(golden), 0), uint8(16))                            // trailing byte
	two := []byte{0x02, 0x01, 0x02, 0x00, 3, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 1, 4} // two delta blocks: {1, 2}, {2}
	f.Add(two, uint8(3))
	f.Add([]byte{0x02, 0x02, 0x00, 0x00}, uint8(4))                                        // no blocks
	f.Add([]byte{0x02, 0x02, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0x10}, uint8(4))          // length past the payload
	f.Add([]byte{0x02, 0x02, 0x01, 0x00, 5, 0, 0, 0, 0xff, 0xff, 0xff, 0x3f, 0}, uint8(4)) // count no block holds
	f.Add(MarshalChunk(Float64, []float64{1, 2, 3}), uint8(3))                             // raw chunk
	f.Add(FailMarker, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, room uint8) {
		exact := slices.Clip(slices.Clone(data))
		roomy := append(slices.Clone(data), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)[:len(data)]
		fuzzChunkDecode(t, Float64, exact, roomy, int(room), math.Float64bits)
		fuzzChunkDecode(t, Int64, exact, roomy, int(room), func(v int64) uint64 { return uint64(v) })
		fuzzChunkDecode(t, Int32, exact, roomy, int(room), func(v int32) uint64 { return uint64(v) })
	})
}

func fuzzChunkDecode[T any](t *testing.T, c Codec[T], exact, roomy []byte, room int, bits func(T) uint64) {
	dst, dst2 := make([]T, room), make([]T, room)
	n, err := UnmarshalChunkInto(c, exact, dst)
	n2, err2 := UnmarshalChunkInto(c, roomy, dst2)
	if n != n2 || (err == nil) != (err2 == nil) {
		t.Fatalf("%s: (%d, %v) with nothing behind the payload, (%d, %v) with a tail", c.Name, n, err, n2, err2)
	}
	if n > room {
		t.Fatalf("%s: %d elements into a destination of %d", c.Name, n, room)
	}
	all, aerr := UnmarshalChunk(c, exact)
	if err != nil {
		// The allocating decoder has no destination to outgrow; every other
		// failure it shares.
		if aerr == nil && len(all) <= room {
			t.Fatalf("%s: decode-into failed (%v) where the allocating decoder returned %d elements", c.Name, err, len(all))
		}
		return
	}
	if aerr != nil || len(all) != n {
		t.Fatalf("%s: decode-into stored %d elements, the allocating decoder %d (%v)", c.Name, n, len(all), aerr)
	}
	if IsCompressedChunk(exact) && n > 64*len(exact) {
		t.Fatalf("%s: %d elements from a %d-byte envelope", c.Name, n, len(exact))
	}
	for i := 0; i < n; i++ {
		if bits(dst[i]) != bits(dst2[i]) || bits(dst[i]) != bits(all[i]) {
			t.Fatalf("%s: element %d decodes to %x, %x with a tail, %x allocating", c.Name, i, bits(dst[i]), bits(dst2[i]), bits(all[i]))
		}
	}
	if ChunkCodec(exact) != zcodec.None && ChunkCodec(exact) != c.CompressID {
		t.Fatalf("%s: decoded an envelope of codec %v", c.Name, ChunkCodec(exact))
	}
}
