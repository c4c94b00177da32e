package zcodec

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Package-wide byte ledgers. Encoders add the raw (pre-compression)
// and encoded sizes; decoders add the decoded and consumed sizes. The
// encode ratio is the headline compression number: raw bytes that
// would have crossed the wire divided by bytes that actually did.
//
// Alongside the byte ledgers the encoders and decoders accumulate the
// nanoseconds each block took, giving the adaptive policy an observed
// encode throughput. A block is one goroutine's work from start to
// end, so that throughput is what one encoding thread sustains.
var (
	encRawBytes atomic.Int64
	encOutBytes atomic.Int64
	decRawBytes atomic.Int64
	decInBytes  atomic.Int64
	encNanos    atomic.Int64
	decNanos    atomic.Int64

	encHist atomic.Pointer[obs.Histogram]
	decHist atomic.Pointer[obs.Histogram]
)

func statEncode(raw, out int, dur time.Duration) {
	encRawBytes.Add(int64(raw))
	encOutBytes.Add(int64(out))
	encNanos.Add(int64(dur))
	encHist.Load().Observe(dur)
}

func statDecode(raw, in int, dur time.Duration) {
	decRawBytes.Add(int64(raw))
	decInBytes.Add(int64(in))
	decNanos.Add(int64(dur))
	decHist.Load().Observe(dur)
}

// Stats returns the cumulative (rawOut, wireOut, rawIn, wireIn) byte
// counts: bytes before/after encoding and after/before decoding.
func Stats() (rawOut, wireOut, rawIn, wireIn int64) {
	return encRawBytes.Load(), encOutBytes.Load(), decRawBytes.Load(), decInBytes.Load()
}

// ResetStats zeroes the ledgers (tests and benchmarks).
func ResetStats() {
	encRawBytes.Store(0)
	encOutBytes.Store(0)
	decRawBytes.Store(0)
	decInBytes.Store(0)
	encNanos.Store(0)
	decNanos.Store(0)
}

// EncodeRatio returns raw/wire for the encode direction, or 0 when
// nothing has been encoded.
func EncodeRatio() float64 {
	out := encOutBytes.Load()
	if out == 0 {
		return 0
	}
	return float64(encRawBytes.Load()) / float64(out)
}

// EncodeThroughput returns the observed encode rate in raw bytes per
// second spent encoding, or 0 when nothing has been timed yet.
func EncodeThroughput() float64 {
	ns := encNanos.Load()
	if ns <= 0 {
		return 0
	}
	return float64(encRawBytes.Load()) * float64(time.Second) / float64(ns)
}

// Tuning constants for the Auto policy decision.
const (
	// autoMinRatio is the observed encode ratio below which
	// compressing is judged not worth the cycles on any link.
	autoMinRatio = 1.15
	// autoMargin is how much faster than the wire the encoder must
	// be before compression is predicted to win: the codec stage is
	// pipelined but still has to keep ahead of the link.
	autoMargin = 1.5
)

// CompressionWins is the Auto-policy decision: given the estimated
// wire bandwidth of the connection a leg will use (bytes/sec; <= 0
// when unknown), decide from the cumulative encode ledgers whether
// compressing that leg is predicted to net out. Missing evidence —
// no timed encodes yet, or no bandwidth estimate — answers true, so
// a cold path compresses optimistically and thereby generates the
// measurements the next decision needs.
func CompressionWins(wireBps float64) bool {
	return compressionWins(EncodeRatio(), EncodeThroughput(), wireBps)
}

func compressionWins(ratio, encBps, wireBps float64) bool {
	if encBps <= 0 {
		return true // nothing timed yet: warm up optimistically
	}
	if ratio > 0 && ratio < autoMinRatio {
		return false // workload is incompressible; skip everywhere
	}
	if wireBps <= 0 {
		return true // no wire estimate yet: warm up optimistically
	}
	return encBps >= autoMargin*wireBps
}

// EnableMetrics registers the codec ledgers with a registry:
// bytes-in/bytes-out for both directions plus a milli-ratio gauge
// (encode ratio ×1000, so 2.5× reads as 2500), and wires the
// per-block zcodec.encode_ns / zcodec.decode_ns histograms. A nil
// registry detaches the histograms.
func EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		encHist.Store(nil)
		decHist.Store(nil)
		return
	}
	encHist.Store(reg.Histogram("zcodec.encode_ns"))
	decHist.Store(reg.Histogram("zcodec.decode_ns"))
	reg.RegisterPull("zcodec", func(put func(name string, v int64)) {
		put("zcodec.encode_raw_bytes", encRawBytes.Load())
		put("zcodec.encode_wire_bytes", encOutBytes.Load())
		put("zcodec.decode_raw_bytes", decRawBytes.Load())
		put("zcodec.decode_wire_bytes", decInBytes.Load())
		put("zcodec.encode_cpu_ns", encNanos.Load())
		put("zcodec.decode_cpu_ns", decNanos.Load())
		if out := encOutBytes.Load(); out > 0 {
			put("zcodec.encode_ratio_milli", encRawBytes.Load()*1000/out)
		} else {
			put("zcodec.encode_ratio_milli", 0)
		}
	})
}
