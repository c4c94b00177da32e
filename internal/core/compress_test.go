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

// TestCompressedStreamedRoundTrip is the end-to-end check for wire
// compression: server exported with compression on, client binding sending
// with it, a streamed InOut invocation over smooth doubles. The data must round
// trip exactly, the zcodec ledgers must show the wire carried fewer bytes
// than the raw payload (≥2× on this workload), and the chunk-send spans must
// carry the codec mask.
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
				streamChunkElems:  128,
				Compression:       zcodec.MaskAll,
				CompressionPolicy: zcodec.PolicyAlways,
				Trace:             rec,
			}
			tc.runClientOpts(t, cfg.c, opts, func(c *rts.Comm, b *Binding) error {
				return invokeScaleSmooth(c, b, 1024, 3)
			})
			rawOut, wireOut, rawIn, wireIn := zcodec.Stats()
			if rawOut == 0 || wireOut == 0 {
				t.Fatalf("no compressed encodes recorded (raw %d wire %d): compression never engaged", rawOut, wireOut)
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
// extra chunk when both sides compress. Raw and compressed chunks take
// the same pipelined sender, the codec encodes one block into the sender's
// ring slot and decodes it straight into the sequence's storage, so a
// compressed chunk is held to the raw budget of TestStreamedChunkAllocs.
func TestCompressedChunkAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement in -short mode or with pools the race detector empties")
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
		streamChunkElems:  chunk,
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
		const budget = 0.25
		if perChunk > budget {
			return fmt.Errorf("compressed transfer allocates %.2f per extra chunk, budget %.2f", perChunk, budget)
		}
		return nil
	})
}

// TestCompressionInterop pins the sender's rule: each side compresses the
// framed legs it sends by its own mask, and decodes whatever arrives. Every
// row's data round trips exactly; a chunk-send span carries a codec on
// exactly the side whose mask is set (the client's spans are its request
// legs, the server's its reply legs); with neither set the zcodec encoders
// are never engaged. The "both" row's 8192-element chunks each travel as one
// block.
func TestCompressionInterop(t *testing.T) {
	cases := []struct {
		name           string
		server, client uint8
		chunk, elems   int
	}{
		{"neither", 0, 0, 128, 1024},
		{"client-only", 0, zcodec.MaskAll, 128, 1024},
		{"server-only", zcodec.MaskAll, 0, 128, 1024},
		{"both", zcodec.Supported, zcodec.Supported, 8192, 16384},
	}
	for _, tt := range cases {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			zcodec.ResetStats()
			cliRec, srvRec := obs.NewRecorder(256), obs.NewRecorder(256)
			tc := startCluster(t, 2, false, nil, func(o *ExportOptions) {
				o.Compression = tt.server
				o.CompressionPolicy = zcodec.PolicyAlways
				o.Trace = srvRec
			})
			opts := BindOptions{
				Method: Centralized, Timeout: testTimeout,
				streamChunkElems:  tt.chunk,
				Compression:       tt.client,
				CompressionPolicy: zcodec.PolicyAlways,
				Trace:             cliRec,
			}
			tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
				return invokeScaleSmooth(c, b, tt.elems, 2)
			})
			for _, side := range []struct {
				name string
				rec  *obs.Recorder
				mask uint8
			}{{"client", cliRec, tt.client}, {"server", srvRec, tt.server}} {
				sends, coded := 0, 0
				for _, sp := range side.rec.Spans() {
					if sp.Phase == obs.PhaseChunkSend {
						sends++
						if sp.Codec != 0 {
							coded++
						}
					}
				}
				want := 0
				if side.mask != 0 {
					want = sends
				}
				if sends == 0 || coded != want {
					t.Errorf("%s: %d of %d chunk-send spans carry a codec, want %d (mask %#x)", side.name, coded, sends, want, side.mask)
				}
			}
			rawOut, wireOut, rawIn, wireIn := zcodec.Stats()
			if tt.server|tt.client != 0 {
				if rawOut == 0 || wireOut == 0 || wireOut >= rawOut || rawIn == 0 || wireIn == 0 {
					t.Errorf("compression not engaged (encoded raw %d wire %d, decoded raw %d wire %d)", rawOut, wireOut, rawIn, wireIn)
				}
			} else if rawOut != 0 || wireOut != 0 {
				t.Errorf("zcodec encoders engaged (raw %d wire %d), want raw path", rawOut, wireOut)
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
		streamChunkElems: 128,
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
