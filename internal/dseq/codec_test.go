package dseq

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cdr"
)

func chunkRoundTrip[T comparable](t *testing.T, c Codec[T], v []T) {
	t.Helper()
	got, err := UnmarshalChunk(c, MarshalChunk(c, v))
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	if len(got) != len(v) {
		t.Fatalf("%s: %d elements, want %d", c.Name, len(got), len(v))
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("%s[%d]: %v != %v", c.Name, i, got[i], v[i])
		}
	}
}

func TestCodecRoundTrips(t *testing.T) {
	chunkRoundTrip(t, Float64, []float64{0, 1.5, -2.25, math.MaxFloat64, math.SmallestNonzeroFloat64})
	chunkRoundTrip(t, Float64, nil)
	chunkRoundTrip(t, Float32, []float32{1, -1, 0.5})
	chunkRoundTrip(t, Int32, []int32{0, -1, math.MaxInt32, math.MinInt32})
	chunkRoundTrip(t, Int64, []int64{0, -1, math.MaxInt64, math.MinInt64})
	chunkRoundTrip(t, Octet, []byte{0, 127, 255})
	chunkRoundTrip(t, Bool, []bool{true, false, true})
	chunkRoundTrip(t, String, []string{"", "hello", "with spaces and ünïcode"})
}

func TestCodecProperties(t *testing.T) {
	if err := quick.Check(func(v []float64) bool {
		got, err := UnmarshalChunk(Float64, MarshalChunk(Float64, v))
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v []int64) bool {
		got, err := UnmarshalChunk(Int64, MarshalChunk(Int64, v))
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalChunkErrors(t *testing.T) {
	if _, err := UnmarshalChunk(Float64, nil); err == nil {
		t.Fatal("empty chunk accepted")
	}
	if _, err := UnmarshalChunk(Float64, []byte{9, 0, 0}); err == nil {
		t.Fatal("bad flag accepted")
	}
	good := MarshalChunk(Float64, []float64{1, 2, 3})
	for cut := 1; cut < len(good); cut++ {
		if _, err := UnmarshalChunk(Float64, good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// The decode-into form has a copy-only path for packed chunks; every
	// truncation (the empty payload included) must still be an error, for
	// every element width, and too small a destination too.
	dst := make([]float64, 3)
	for cut := 0; cut < len(good); cut++ {
		if _, err := UnmarshalChunkInto(Float64, good[:cut], dst); err == nil {
			t.Fatalf("decode-into: truncation at %d accepted", cut)
		}
		if _, err := UnmarshalChunkInto(Int32, good[:cut], make([]int32, 8)); err == nil && cut <= packedElemsOff {
			t.Fatalf("decode-into as long: truncation at %d accepted", cut)
		}
	}
	if n, err := UnmarshalChunkInto(Float64, good, dst); err != nil || n != 3 || dst[2] != 3 {
		t.Fatalf("decode-into: %d %v %v", n, err, dst)
	}
	if _, err := UnmarshalChunkInto(Float64, good, dst[:2]); err == nil {
		t.Fatal("decode-into: chunk of 3 accepted into a destination of 2")
	}
}

type point struct {
	X, Y int32
	Tag  string
}

func TestStructCodec(t *testing.T) {
	pc := StructCodec("point",
		func(e *cdr.Encoder, p point) {
			e.WriteLong(p.X)
			e.WriteLong(p.Y)
			e.WriteString(p.Tag)
		},
		func(d *cdr.Decoder) (point, error) {
			var p point
			var err error
			if p.X, err = d.ReadLong(); err != nil {
				return p, err
			}
			if p.Y, err = d.ReadLong(); err != nil {
				return p, err
			}
			p.Tag, err = d.ReadString()
			return p, err
		})
	in := []point{{1, 2, "a"}, {-5, 7, "long tag here"}, {0, 0, ""}}
	got, err := UnmarshalChunk(pc, MarshalChunk(pc, in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("point %d: %+v != %+v", i, got[i], in[i])
		}
	}
	if !strings.Contains(pc.Name, "point") {
		t.Fatal("codec name")
	}
}

func TestCodecHugeCountDoesNotPreallocate(t *testing.T) {
	// A corrupt count must not cause a giant allocation before the decode
	// fails on truncation.
	e := cdr.NewEncoder(cdr.NativeOrder)
	e.WriteOctet(byte(cdr.NativeOrder))
	e.WriteULong(0xFFFFFF)
	if _, err := UnmarshalChunk(Int64, e.Bytes()); err == nil {
		t.Fatal("truncated huge sequence accepted")
	}
}
