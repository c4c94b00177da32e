package zcodec

import (
	"math"
	"math/rand"
	"testing"
)

func doubleCases() map[string][]float64 {
	r := rand.New(rand.NewSource(8))
	rnd := make([]float64, 512)
	for i := range rnd {
		rnd[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(20)-10))
	}
	ramp := make([]float64, 4096)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	walk := make([]float64, 1024)
	v := 100.0
	for i := range walk {
		v += r.Float64() - 0.5
		walk[i] = v
	}
	return map[string][]float64{
		"empty":    nil,
		"one":      {3.25},
		"const":    {7, 7, 7, 7, 7, 7, 7},
		"ramp":     ramp,
		"walk":     walk,
		"random":   rnd,
		"specials": {0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64},
	}
}

func TestDoublesRoundTrip(t *testing.T) {
	for name, vals := range doubleCases() {
		t.Run(name, func(t *testing.T) {
			enc := AppendDoubles(nil, vals)
			got, err := DecodeDoubles(enc, MaxBlockElems)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got) != len(vals) {
				t.Fatalf("len=%d want %d", len(got), len(vals))
			}
			for i := range vals {
				if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
					t.Fatalf("[%d] %v != %v", i, got[i], vals[i])
				}
			}
			into := make([]float64, len(vals))
			if err := DecodeDoublesInto(into, enc); err != nil {
				t.Fatalf("decode into: %v", err)
			}
			for i := range vals {
				if math.Float64bits(into[i]) != math.Float64bits(vals[i]) {
					t.Fatalf("into[%d] %v != %v", i, into[i], vals[i])
				}
			}
		})
	}
}

func TestDoublesRampRatio(t *testing.T) {
	// The headline workload: the smooth float64(i) ramp RunReal streams.
	// The acceptance bar is >=2x; the XOR codec should beat that easily.
	vals := make([]float64, 1<<15)
	for i := range vals {
		vals[i] = float64(i)
	}
	enc := AppendDoubles(nil, vals)
	ratio := float64(8*len(vals)) / float64(len(enc))
	if ratio < 2 {
		t.Fatalf("ramp compression ratio %.2fx, want >= 2x (encoded %d bytes for %d raw)",
			ratio, len(enc), 8*len(vals))
	}
	t.Logf("ramp ratio %.2fx (%d -> %d bytes)", ratio, 8*len(vals), len(enc))
}

func TestInt64sRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	cases := map[string][]int64{
		"empty":    nil,
		"one":      {-42},
		"two":      {5, -5},
		"ramp":     {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		"extremes": {math.MaxInt64, math.MinInt64, 0, math.MaxInt64, math.MinInt64 + 1},
	}
	rnd := make([]int64, 700)
	for i := range rnd {
		rnd[i] = r.Int63() - r.Int63()
	}
	cases["random"] = rnd
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) {
			enc := AppendInt64s(nil, vals)
			got, err := DecodeInt64s(enc, MaxBlockElems)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got) != len(vals) {
				t.Fatalf("len=%d want %d", len(got), len(vals))
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("[%d] %d != %d", i, got[i], vals[i])
				}
			}
			into := make([]int64, len(vals))
			if err := DecodeInt64sInto(into, enc); err != nil {
				t.Fatalf("decode into: %v", err)
			}
		})
	}
}

func TestInt32sRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	cases := map[string][]int32{
		"empty":    nil,
		"one":      {7},
		"ramp":     {100, 101, 102, 103, 104},
		"extremes": {math.MaxInt32, math.MinInt32, 0, -1, 1},
	}
	rnd := make([]int32, 600)
	for i := range rnd {
		rnd[i] = int32(r.Uint32())
	}
	cases["random"] = rnd
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) {
			enc := AppendInt32s(nil, vals)
			got, err := DecodeInt32s(enc, MaxBlockElems)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got) != len(vals) {
				t.Fatalf("len=%d want %d", len(got), len(vals))
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("[%d] %d != %d", i, got[i], vals[i])
				}
			}
		})
	}
}

func TestIntRampRatio(t *testing.T) {
	vals := make([]int64, 1<<14)
	for i := range vals {
		vals[i] = int64(i) * 3
	}
	enc := AppendInt64s(nil, vals)
	if ratio := float64(8*len(vals)) / float64(len(enc)); ratio < 2 {
		t.Fatalf("int ramp ratio %.2fx, want >= 2x", ratio)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	enc := AppendDoubles(nil, vals)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeDoubles(enc[:cut], MaxBlockElems); err == nil {
			t.Fatalf("truncated to %d of %d bytes decoded without error", cut, len(enc))
		}
	}
	ints := AppendInt64s(nil, []int64{1, 2, 3, 4, 5})
	for cut := 0; cut < len(ints)-1; cut++ {
		if _, err := DecodeInt64s(ints[:cut], MaxBlockElems); err == nil {
			t.Fatalf("truncated ints to %d bytes decoded without error", cut)
		}
	}
}

func TestDecodeRejectsOversizedCount(t *testing.T) {
	enc := AppendDoubles(nil, []float64{1, 2, 3})
	if _, err := DecodeDoubles(enc, 2); err != ErrTooLarge {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if err := DecodeDoublesInto(make([]float64, 2), enc); err != ErrCount {
		t.Fatalf("want ErrCount, got %v", err)
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeDoubles(huge, MaxBlockElems); err != ErrTooLarge {
		t.Fatalf("huge count: want ErrTooLarge, got %v", err)
	}
	if _, err := DecodeInt64s(huge, MaxBlockElems); err != ErrTooLarge {
		t.Fatalf("huge int count: want ErrTooLarge, got %v", err)
	}
}

func TestDecodeCorruptNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	base := AppendDoubles(nil, []float64{1, 2, 4, 8, 16, 32, 64})
	for trial := 0; trial < 2000; trial++ {
		b := append([]byte(nil), base...)
		for f := 0; f < 1+r.Intn(4); f++ {
			b[r.Intn(len(b))] ^= byte(1 << r.Intn(8))
		}
		DecodeDoubles(b, 1<<20) //nolint:errcheck — must not panic
		DecodeInt64s(b, 1<<20)  //nolint:errcheck
		DecodeInt32s(b, 1<<20)  //nolint:errcheck
		rb := make([]byte, r.Intn(40))
		r.Read(rb)
		DecodeDoubles(rb, 1<<20) //nolint:errcheck
		DecodeInt64s(rb, 1<<20)  //nolint:errcheck
	}
}

func TestAppendDoublesNoAllocWithCapacity(t *testing.T) {
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(i)
	}
	buf := make([]byte, 0, 10*len(vals)+16)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendDoubles(buf[:0], vals)
	})
	if allocs != 0 {
		t.Fatalf("AppendDoubles with capacity allocates %.1f/op, want 0", allocs)
	}
	out := make([]float64, len(vals))
	allocs = testing.AllocsPerRun(100, func() {
		if err := DecodeDoublesInto(out, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeDoublesInto allocates %.1f/op, want 0", allocs)
	}
}

func TestParseMask(t *testing.T) {
	for s, want := range map[string]uint8{
		"": 0, "off": 0, "none": 0,
		"delta": MaskDelta, "xor": MaskXOR,
		"all": Supported, "auto": Supported, "always": Supported,
	} {
		got, err := ParseMask(s)
		if err != nil || got != want {
			t.Fatalf("ParseMask(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	if _, err := ParseMask("zstd"); err == nil {
		t.Fatal("ParseMask accepted unknown codec")
	}
	if MaskString(MaskXOR) != "xor" || MaskString(0) != "off" || MaskString(MaskAll) != "all" {
		t.Fatal("MaskString mismatch")
	}
	if Supported != MaskAll || MaskString(MaskDelta) != "delta" {
		t.Fatalf("Supported = %#x, MaskString(MaskDelta) = %q", Supported, MaskString(MaskDelta))
	}
	if MaskString(0x80) != "mask(0x80)" || MaskString(MaskAll|0x80) != "mask(0x83)" {
		t.Fatal("MaskString unknown-bit mismatch")
	}
	if XOR.String() != "xor" || Delta.String() != "delta" || None.String() != "none" {
		t.Fatal("ID.String mismatch")
	}
	if !HasCodec(MaskAll, XOR) || !HasCodec(MaskAll, Delta) || HasCodec(MaskDelta, XOR) || HasCodec(MaskAll, None) {
		t.Fatal("HasCodec mismatch")
	}
	if HasCodec(0x40, XOR) || HasCodec(0x40, Delta) {
		t.Fatal("an undefined mask bit admitted a codec")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		mask uint8
		pol  Policy
	}{
		{"off", 0, PolicyAuto},
		{"", 0, PolicyAuto},
		{"delta", MaskDelta, PolicyAlways},
		{"xor", MaskXOR, PolicyAlways},
		{"all", Supported, PolicyAlways},
		{"always", Supported, PolicyAlways},
		{"auto", Supported, PolicyAuto},
	} {
		mask, pol, err := ParseMode(tc.in)
		if err != nil || mask != tc.mask || pol != tc.pol {
			t.Fatalf("ParseMode(%q) = (%#x, %v, %v); want (%#x, %v)", tc.in, mask, pol, err, tc.mask, tc.pol)
		}
	}
	if _, _, err := ParseMode("zstd"); err == nil {
		t.Fatal("ParseMode accepted unknown mode")
	}
	if PolicyAuto.String() != "auto" || PolicyAlways.String() != "always" {
		t.Fatal("Policy.String mismatch")
	}
}

func TestCompressionWins(t *testing.T) {
	const MBps = float64(1 << 20)
	for _, tc := range []struct {
		name                string
		ratio, encBps, wire float64
		want                bool
	}{
		{"cold-encoder", 0, 0, 10000 * MBps, true},
		{"cold-wire", 4.6, 800 * MBps, 0, true},
		{"incompressible", 1.02, 800 * MBps, 1 * MBps, false},
		{"slow-link", 4.6, 800 * MBps, 64 * MBps, true},
		{"fast-loopback", 4.6, 800 * MBps, 8000 * MBps, false},
		{"marginal", 4.6, 90 * MBps, 64 * MBps, false},
	} {
		if got := compressionWins(tc.ratio, tc.encBps, tc.wire); got != tc.want {
			t.Errorf("%s: compressionWins(%.2f, %.0f, %.0f) = %v, want %v",
				tc.name, tc.ratio, tc.encBps, tc.wire, got, tc.want)
		}
	}
}

func TestEncodeThroughputLedger(t *testing.T) {
	ResetStats()
	defer ResetStats()
	if EncodeThroughput() != 0 {
		t.Fatal("throughput nonzero before any encode")
	}
	vals := make([]float64, 1<<14)
	for i := range vals {
		vals[i] = float64(i)
	}
	enc := AppendDoubles(nil, vals)
	if EncodeThroughput() <= 0 {
		t.Fatal("throughput not recorded after encode")
	}
	if _, err := DecodeDoubles(enc, MaxBlockElems); err != nil {
		t.Fatal(err)
	}
	if decNanos.Load() <= 0 {
		t.Fatal("decode nanoseconds not recorded")
	}
	// CompressionWins must route through the live ledgers without error
	// in both warm and cold states.
	_ = CompressionWins(1 << 30)
	ResetStats()
	if !CompressionWins(1 << 30) {
		t.Fatal("cold ledger must decide optimistically")
	}
}
