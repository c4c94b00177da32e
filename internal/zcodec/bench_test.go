package zcodec

import (
	"math/rand"
	"testing"
)

// benchElems is one chunk of the streamed schedule's default shape: the
// 64 KiB of float64s a compressed dsequence chunk encodes as one block.
const benchElems = 8192

// benchDoubles returns the two float64 shapes the codec benchmarks run on:
// the end-to-end benchmark's ramp x[g] = s0 + g·s1 (integers, so each XOR
// touches a few low mantissa bits) and a random walk (a wide window on
// almost every value).
func benchDoubles() map[string][]float64 {
	r := rand.New(rand.NewSource(34))
	ramp, walk := make([]float64, benchElems), make([]float64, benchElems)
	s0, s1 := float64(1+r.Intn(1<<20)), float64(1+r.Intn(16))
	v := 100.0
	for g := range ramp {
		ramp[g] = s0 + float64(g)*s1
		v += r.Float64() - 0.5
		walk[g] = v
	}
	return map[string][]float64{"ramp": ramp, "walk": walk}
}

// benchInt64s is benchDoubles for the Delta codec: the same ramp, and a
// walk of small signed steps.
func benchInt64s() map[string][]int64 {
	r := rand.New(rand.NewSource(34))
	ramp, walk := make([]int64, benchElems), make([]int64, benchElems)
	s0, s1 := int64(1+r.Intn(1<<20)), int64(1+r.Intn(16))
	v := int64(100)
	for g := range ramp {
		ramp[g] = s0 + int64(g)*s1
		v += int64(r.Intn(1001)) - 500
		walk[g] = v
	}
	return map[string][]int64{"ramp": ramp, "walk": walk}
}

func BenchmarkAppendDoubles(b *testing.B) {
	cases := benchDoubles()
	for _, name := range []string{"ramp", "walk"} {
		vals := cases[name]
		b.Run(name, func(b *testing.B) {
			buf := make([]byte, 0, DoublesBound(len(vals)))
			b.SetBytes(int64(8 * len(vals)))
			for b.Loop() {
				buf = AppendDoubles(buf[:0], vals)
			}
			b.ReportMetric(float64(8*len(vals))/float64(len(buf)), "ratio")
		})
	}
}

func BenchmarkDecodeDoublesInto(b *testing.B) {
	cases := benchDoubles()
	for _, name := range []string{"ramp", "walk"} {
		vals := cases[name]
		b.Run(name, func(b *testing.B) {
			block := AppendDoubles(nil, vals)
			dst := make([]float64, len(vals))
			b.SetBytes(int64(8 * len(vals)))
			for b.Loop() {
				if err := DecodeDoublesInto(dst, block); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(8*len(vals))/float64(len(block)), "ratio")
		})
	}
}

func BenchmarkAppendInt64s(b *testing.B) {
	cases := benchInt64s()
	for _, name := range []string{"ramp", "walk"} {
		vals := cases[name]
		b.Run(name, func(b *testing.B) {
			buf := make([]byte, 0, Int64sBound(len(vals)))
			b.SetBytes(int64(8 * len(vals)))
			for b.Loop() {
				buf = AppendInt64s(buf[:0], vals)
			}
			b.ReportMetric(float64(8*len(vals))/float64(len(buf)), "ratio")
		})
	}
}

func BenchmarkDecodeInt64sInto(b *testing.B) {
	cases := benchInt64s()
	for _, name := range []string{"ramp", "walk"} {
		vals := cases[name]
		b.Run(name, func(b *testing.B) {
			block := AppendInt64s(nil, vals)
			dst := make([]int64, len(vals))
			b.SetBytes(int64(8 * len(vals)))
			for b.Loop() {
				if err := DecodeInt64sInto(dst, block); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(8*len(vals))/float64(len(block)), "ratio")
		})
	}
}
