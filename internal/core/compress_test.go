package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/rts"
	"repro/internal/zcodec"
)

// invokeScaleSmooth runs one InOut "scale" invocation over a smooth ramp of
// doubles (the workload wire compression is built for) and verifies both the
// scalar reply and every local element. Both legs stream when n exceeds the
// binding's chunk size.
func invokeScaleSmooth(c *rts.Comm, b *Binding, n int, factor int32) error {
	arr, err := dseq.New(c, dseq.Float64, n, nil)
	if err != nil {
		return err
	}
	arr.FillFunc(func(g int) float64 { return float64(g) })
	reply, err := b.Invoke("scale", scaleScalars(factor), []DistArg{InOutSeq(arr)})
	if err != nil {
		return err
	}
	d, err := ScalarDecoder(reply)
	if err != nil {
		return err
	}
	if got, err := d.ReadLong(); err != nil || got != int32(n) {
		return fmt.Errorf("scale reply %d err %v, want %d", got, err, n)
	}
	full, err := arr.Collect()
	if err != nil {
		return err
	}
	for i, v := range full {
		if want := float64(i) * float64(factor); v != want {
			return fmt.Errorf("element %d holds %v, want %v", i, v, want)
		}
	}
	return nil
}

// TestCompressedStreamedRoundTrip is the end-to-end check for negotiated wire
// compression: server exported with compression on, client binding offering
// it, a streamed InOut invocation over smooth doubles. The data must round
// trip exactly, the zcodec ledgers must show the wire carried fewer bytes
// than the raw payload (≥2× on this workload), and the chunk-send spans must
// carry the negotiated codec mask.
func TestCompressedStreamedRoundTrip(t *testing.T) {
	for _, cfg := range []struct{ c, s int }{{1, 1}, {2, 2}} {
		cfg := cfg
		t.Run(fmt.Sprintf("c%d-s%d", cfg.c, cfg.s), func(t *testing.T) {
			zcodec.ResetStats()
			tc := startCluster(t, cfg.s, false, nil, func(o *ExportOptions) {
				o.Compression = zcodec.MaskAll
				o.CompressionPolicy = zcodec.PolicyAlways
			})
			rec := obs.NewRecorder(256)
			opts := BindOptions{
				Method: Centralized, Timeout: testTimeout,
				StreamChunkElems:  128,
				Compression:       zcodec.MaskAll,
				CompressionPolicy: zcodec.PolicyAlways,
				Trace:             rec,
			}
			tc.runClientOpts(t, cfg.c, opts, func(c *rts.Comm, b *Binding) error {
				return invokeScaleSmooth(c, b, 1024, 3)
			})
			rawOut, wireOut, rawIn, wireIn := zcodec.Stats()
			if rawOut == 0 || wireOut == 0 {
				t.Fatalf("no compressed encodes recorded (raw %d wire %d): negotiation never engaged", rawOut, wireOut)
			}
			if ratio := float64(rawOut) / float64(wireOut); ratio < 2 {
				t.Errorf("encode ratio %.2f× (raw %d wire %d), want ≥2× on smooth doubles", ratio, rawOut, wireOut)
			}
			if rawIn == 0 || wireIn == 0 {
				t.Errorf("no compressed decodes recorded (raw %d wire %d)", rawIn, wireIn)
			}
			var sends, coded int
			for _, sp := range rec.Spans() {
				if sp.Phase != obs.PhaseChunkSend {
					continue
				}
				sends++
				if sp.Codec != 0 {
					coded++
					if sp.Codec&int32(zcodec.MaskAll) == 0 {
						t.Errorf("chunk-send span carries codec mask %#x outside %#x", sp.Codec, zcodec.MaskAll)
					}
				}
			}
			if sends == 0 || coded == 0 {
				t.Errorf("chunk-send spans: %d total, %d with a codec mask; want both nonzero", sends, coded)
			}
		})
	}
}

// TestCompressedChunkAllocs bounds the marginal allocation cost of each
// extra chunk when compression is negotiated. Raw and compressed chunks take
// the same pipelined sender (TestStreamedChunkAllocs pins the raw budget);
// the codec renders into the sender's ring slot, so what compression adds per
// chunk is codec state, not a buffer — the budget sits above the raw one only
// by that, and must stay fixed, not grow with traffic.
func TestCompressedChunkAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	const (
		chunk      = 256
		smallElems = 8 * chunk
		bigElems   = 40 * chunk
		extraChunk = 2 * (40 - 8)
	)
	tc := startCluster(t, 1, false, nil, func(o *ExportOptions) {
		o.Compression = zcodec.MaskAll
		o.CompressionPolicy = zcodec.PolicyAlways
	})
	opts := BindOptions{
		Method: Centralized, Timeout: testTimeout,
		StreamChunkElems:  chunk,
		Compression:       zcodec.MaskAll,
		CompressionPolicy: zcodec.PolicyAlways,
	}
	tc.runClientOpts(t, 1, opts, func(c *rts.Comm, b *Binding) error {
		measure := func(elems int) (float64, error) {
			seq, err := dseq.New(c, dseq.Float64, elems, nil)
			if err != nil {
				return 0, err
			}
			seq.FillFunc(func(g int) float64 { return float64(g) })
			if _, err := b.Invoke("scale", scaleScalars(1), []DistArg{InOutSeq(seq)}); err != nil {
				return 0, err
			}
			var invokeErr error
			allocs := testing.AllocsPerRun(6, func() {
				if _, err := b.Invoke("scale", scaleScalars(1), []DistArg{InOutSeq(seq)}); err != nil {
					invokeErr = err
				}
			})
			return allocs, invokeErr
		}
		small, err := measure(smallElems)
		if err != nil {
			return err
		}
		big, err := measure(bigElems)
		if err != nil {
			return err
		}
		// The transfer really ran compressed — otherwise this guards nothing.
		if rawOut, wireOut, _, _ := zcodec.Stats(); rawOut == 0 || wireOut >= rawOut {
			return fmt.Errorf("compression not engaged during measurement (raw %d wire %d)", rawOut, wireOut)
		}
		perChunk := (big - small) / extraChunk
		t.Logf("compressed invocation allocs: %.0f at %d chunks/leg, %.0f at %d chunks/leg (%.1f per extra chunk)",
			small, smallElems/chunk, big, bigElems/chunk, perChunk)
		const budget = 16
		if perChunk > budget {
			return fmt.Errorf("compressed transfer allocates %.1f per extra chunk, budget %d", perChunk, budget)
		}
		return nil
	})
}

// TestCompressionInterop covers the three outcomes of mask negotiation
// (client offer ∩ server mask; either side may be zero). With nothing in
// common — the server declines, or the client never offers — the invocation
// completes on the raw path with the zcodec encoders never engaged. With
// both sides offering, the transfer compresses and the data round trips
// exactly; its chunks are sized past the sub-block threshold so the
// multi-block envelope is what travels.
func TestCompressionInterop(t *testing.T) {
	cases := []struct {
		name           string
		server, client uint8
		chunk, elems   int
		compressed     bool
	}{
		{"client-offers-server-declines", 0, zcodec.MaskAll, 128, 1024, false},
		{"server-accepts-client-silent", zcodec.MaskAll, 0, 128, 1024, false},
		{"subblock-both", zcodec.Supported, zcodec.Supported, 8192, 16384, true},
	}
	for _, tt := range cases {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			zcodec.ResetStats()
			tc := startCluster(t, 2, false, nil, func(o *ExportOptions) {
				o.Compression = tt.server
				o.CompressionPolicy = zcodec.PolicyAlways
			})
			opts := BindOptions{
				Method: Centralized, Timeout: testTimeout,
				StreamChunkElems:  tt.chunk,
				Compression:       tt.client,
				CompressionPolicy: zcodec.PolicyAlways,
			}
			tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
				return invokeScaleSmooth(c, b, tt.elems, 2)
			})
			rawOut, wireOut, _, _ := zcodec.Stats()
			if tt.compressed {
				if rawOut == 0 || wireOut == 0 || wireOut >= rawOut {
					t.Errorf("%s: compression not engaged (raw %d wire %d)", tt.name, rawOut, wireOut)
				}
			} else if rawOut != 0 || wireOut != 0 {
				t.Errorf("%s: zcodec encoders engaged (raw %d wire %d), want raw path", tt.name, rawOut, wireOut)
			}
		})
	}
}

// TestCompressionAutoFlip drives the Auto policy end to end through the
// compressionWins seam: a deterministic stand-in estimator approves the
// first invocation's two leg decisions (client request mask, server reply
// mask) and vetoes everything after. The first invocation must compress,
// the second must run fully raw, and both sides must count the skip in
// core.compress.skipped_total.
func TestCompressionAutoFlip(t *testing.T) {
	zcodec.ResetStats()
	var calls atomic.Int64
	orig := compressionWins
	compressionWins = func(float64) bool { return calls.Add(1) <= 2 }
	defer func() { compressionWins = orig }()

	srvReg := obs.NewRegistry()
	cliReg := obs.NewRegistry()
	tc := startCluster(t, 1, false, nil, func(o *ExportOptions) {
		o.Compression = zcodec.MaskAll
		o.Server.Metrics = srvReg
	})
	opts := BindOptions{
		Method: Centralized, Timeout: testTimeout,
		StreamChunkElems: 128,
		Compression:      zcodec.MaskAll,
		Metrics:          cliReg,
	}
	tc.runClientOpts(t, 1, opts, func(c *rts.Comm, b *Binding) error {
		if err := invokeScaleSmooth(c, b, 1024, 3); err != nil {
			return err
		}
		rawOut, wireOut, _, _ := zcodec.Stats()
		if rawOut == 0 || wireOut == 0 {
			return fmt.Errorf("approved invocation did not compress (raw %d wire %d)", rawOut, wireOut)
		}
		zcodec.ResetStats()
		if err := invokeScaleSmooth(c, b, 1024, 3); err != nil {
			return err
		}
		if rawOut, wireOut, _, _ := zcodec.Stats(); rawOut != 0 || wireOut != 0 {
			return fmt.Errorf("vetoed invocation still compressed (raw %d wire %d)", rawOut, wireOut)
		}
		return nil
	})
	if got := cliReg.Counter("core.compress.skipped_total").Value(); got != 1 {
		t.Errorf("client skipped counter = %d, want 1", got)
	}
	if got := srvReg.Counter("core.compress.skipped_total").Value(); got != 1 {
		t.Errorf("server skipped counter = %d, want 1", got)
	}
}
