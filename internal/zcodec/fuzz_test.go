package zcodec

import (
	"encoding/binary"
	"math"
	"testing"
)

// subEnvelopeSeed hand-rolls a dseq compressed chunk envelope
// ([0x02][codec][uint16 nsub][nsub × uint32 len + block], little-endian)
// around the given encoded blocks. The envelope container lives in dseq,
// but its bytes reaching a bare block decoder is exactly the
// garbage-tolerance case the fuzzers guard, so the corpora seed it here.
func subEnvelopeSeed(codec ID, blocks ...[]byte) []byte {
	out := binary.LittleEndian.AppendUint16([]byte{0x02, byte(codec)}, uint16(len(blocks)))
	for _, b := range blocks {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// FuzzDecodeDoubles drives the XOR decoder with arbitrary bytes: it
// must reject garbage with an error, never panic, and re-encode any
// block it accepts to the same values.
func FuzzDecodeDoubles(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(AppendDoubles(nil, []float64{1, 2, 3, 4, 5, 6, 7, 8}))
	f.Add(AppendDoubles(nil, []float64{0, math.Inf(1), math.NaN(), -1e300}))
	f.Add(AppendDoubles(nil, []float64{3.25}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(subEnvelopeSeed(XOR,
		AppendDoubles(nil, []float64{1, 2, 3, 4}),
		AppendDoubles(nil, []float64{5, 6, 7, 8})))
	f.Add(subEnvelopeSeed(XOR, AppendDoubles(nil, []float64{math.NaN(), math.Inf(-1)})))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := DecodeDoubles(data, 1<<16)
		if err != nil {
			return
		}
		enc := AppendDoubles(nil, vals)
		back, err := DecodeDoubles(enc, 1<<16)
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if len(back) != len(vals) {
			t.Fatalf("re-encode changed length %d -> %d", len(vals), len(back))
		}
		for i := range vals {
			if math.Float64bits(back[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("[%d] %v != %v after re-encode", i, back[i], vals[i])
			}
		}
	})
}

// FuzzDecodeInts drives both integer decoders with arbitrary bytes and
// checks the accepted-block round-trip property for int64.
func FuzzDecodeInts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(AppendInt64s(nil, []int64{1, 2, 3, 4, 5}))
	f.Add(AppendInt64s(nil, []int64{math.MaxInt64, math.MinInt64, 0}))
	f.Add(AppendInt32s(nil, []int32{-7, 7, 1 << 30}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(subEnvelopeSeed(Delta,
		AppendInt64s(nil, []int64{1, 2, 3}),
		AppendInt64s(nil, []int64{4, 5, 6})))
	f.Add(subEnvelopeSeed(Delta, AppendInt32s(nil, []int32{-1, 0, 1})))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeInt32s(data, 1<<16); err != nil {
			_ = err
		}
		vals, err := DecodeInt64s(data, 1<<16)
		if err != nil {
			return
		}
		enc := AppendInt64s(nil, vals)
		back, err := DecodeInt64s(enc, 1<<16)
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("[%d] %d != %d after re-encode", i, back[i], vals[i])
			}
		}
	})
}
