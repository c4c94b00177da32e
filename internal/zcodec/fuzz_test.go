package zcodec

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// envelopeSeed hand-rolls a dseq compressed chunk envelope
// ([0x02][codec][block]) around the given encoded blocks; blocks after the
// first are trailing bytes to the envelope's decoder. The envelope container
// lives in dseq, but its bytes reaching a bare block decoder is exactly the
// garbage-tolerance case the fuzzers guard, so the corpora seed it here.
func envelopeSeed(codec ID, blocks ...[]byte) []byte {
	return slices.Concat(append([][]byte{{0x02, byte(codec)}}, blocks...)...)
}

// FuzzDecodeDoubles drives the XOR decoder with arbitrary bytes: it
// must reject garbage with an error, never panic, re-encode any block it
// accepts to the same values, and refuse that block with a byte appended.
func FuzzDecodeDoubles(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(AppendDoubles(nil, []float64{1, 2, 3, 4, 5, 6, 7, 8}))
	f.Add(AppendDoubles(nil, []float64{0, math.Inf(1), math.NaN(), -1e300}))
	f.Add(AppendDoubles(nil, []float64{3.25}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(envelopeSeed(XOR,
		AppendDoubles(nil, []float64{1, 2, 3, 4}),
		AppendDoubles(nil, []float64{5, 6, 7, 8})))
	f.Add(envelopeSeed(XOR, AppendDoubles(nil, []float64{math.NaN(), math.Inf(-1)})))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := decodeBlock(DecodeDoublesInto, data, 1<<16)
		if err != nil {
			return
		}
		if _, err := decodeBlock(DecodeDoublesInto, append(slices.Clone(data), 0), 1<<16); err == nil {
			t.Fatal("accepted block with a byte appended decoded cleanly")
		}
		enc := AppendDoubles(nil, vals)
		back, err := decodeBlock(DecodeDoublesInto, enc, 1<<16)
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

// FuzzXORMatchesReference holds the word-at-a-time XOR codec to the
// reference bit-at-a-time one (xor_ref_test.go). The input is read twice:
// as a block, which both decoders must refuse with the same error value or
// decode to the same bits, and as little-endian float64s, which both
// encoders must render to the same bytes.
func FuzzXORMatchesReference(f *testing.F) {
	for _, vals := range [][]float64{nil, {3.25}, {1, 2, 3, 4, 5, 6, 7, 8}, worstDoubles(9), doubleCases()["walk"][:40]} {
		block := refAppendDoubles(nil, vals)
		f.Add(block)
		f.Add(block[:len(block)-1])
		f.Add(append(slices.Clone(block), 0))
		var raw []byte
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(raw)
	}
	f.Add(envelopeSeed(XOR, refAppendDoubles(nil, []float64{math.NaN(), math.Inf(-1)})))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeBlock(DecodeDoublesInto, data, 1<<16)
		want, werr := refDecodeDoubles(data, 1<<16)
		if err != werr {
			t.Fatalf("decode err = %v, reference err = %v", err, werr)
		}
		if !sameBits(got, want) {
			t.Fatalf("decoded %d values, reference %d, and they differ", len(got), len(want))
		}
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if enc, ref := AppendDoubles(nil, vals), refAppendDoubles(nil, vals); !slices.Equal(enc, ref) {
			t.Fatalf("%d values: encoded %x, reference %x", len(vals), enc, ref)
		}
	})
}

// FuzzDecodeInts drives both integer decoders with arbitrary bytes and
// checks, for both, that an accepted block is refused with a byte appended,
// and the accepted-block round-trip property for int64.
func FuzzDecodeInts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(AppendInt64s(nil, []int64{1, 2, 3, 4, 5}))
	f.Add(AppendInt64s(nil, []int64{math.MaxInt64, math.MinInt64, 0}))
	f.Add(AppendInt32s(nil, []int32{-7, 7, 1 << 30}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(envelopeSeed(Delta,
		AppendInt64s(nil, []int64{1, 2, 3}),
		AppendInt64s(nil, []int64{4, 5, 6})))
	f.Add(envelopeSeed(Delta, AppendInt32s(nil, []int32{-1, 0, 1})))
	f.Fuzz(func(t *testing.T, data []byte) {
		longer := append(slices.Clone(data), 0)
		if _, err := decodeBlock(DecodeInt32sInto, data, 1<<16); err == nil {
			if _, err := decodeBlock(DecodeInt32sInto, longer, 1<<16); err == nil {
				t.Fatal("accepted int32 block with a byte appended decoded cleanly")
			}
		}
		vals, err := decodeBlock(DecodeInt64sInto, data, 1<<16)
		if err != nil {
			return
		}
		if _, err := decodeBlock(DecodeInt64sInto, longer, 1<<16); err == nil {
			t.Fatal("accepted int64 block with a byte appended decoded cleanly")
		}
		enc := AppendInt64s(nil, vals)
		back, err := decodeBlock(DecodeInt64sInto, enc, 1<<16)
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
