package pardis

// The benchmark harness regenerating the paper's evaluation. One benchmark
// per table and figure (see DESIGN.md's per-experiment index):
//
//	BenchmarkTable1Centralized  — Table 1, simulated 1997 platform
//	BenchmarkTable2Multiport    — Table 2, simulated 1997 platform
//	BenchmarkFigure4Bandwidth   — Figure 4, simulated 1997 platform
//	BenchmarkUnevenSplit        — the §3.3 uneven-split check
//
// plus ablation benchmarks for the design choices DESIGN.md calls out
// (chunk size, send window, gather algorithm) and BenchmarkPipelinedInvoke,
// the pipelined engine against a modeled link. The real stack's transfers
// and the per-layer microbenchmarks are bench/'s (BENCHMARK.json).
//
// Simulated results are reported as custom metrics (ms/invocation and
// MB/s); they are deterministic, so b.N loops measure only the simulator
// itself while the metrics carry the reproduced values.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/rts"
)

// BenchmarkTable1Centralized regenerates the paper's Table 1: centralized
// argument transfer of a 2^19-double sequence across the c × s grid.
func BenchmarkTable1Centralized(b *testing.B) {
	p := exp.PaperPlatform()
	for _, s := range exp.Table1ServerCounts {
		for _, c := range exp.Table1ClientCounts {
			b.Run(fmt.Sprintf("c=%d/s=%d", c, s), func(b *testing.B) {
				b.ReportAllocs()
				var bd exp.Breakdown
				for i := 0; i < b.N; i++ {
					var err error
					bd, err = exp.SimulateCentralized(p, c, s, exp.PaperElems)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(bd.Total*1e3, "ms/invocation")
				b.ReportMetric(bd.Gather*1e3, "ms-gather")
				b.ReportMetric(bd.Scatter*1e3, "ms-scatter")
			})
		}
	}
}

// BenchmarkTable2Multiport regenerates the paper's Table 2: multi-port
// argument transfer across the c × s grid.
func BenchmarkTable2Multiport(b *testing.B) {
	p := exp.PaperPlatform()
	for _, s := range exp.Table2ServerCounts {
		for _, c := range exp.Table2ClientCounts {
			b.Run(fmt.Sprintf("c=%d/s=%d", c, s), func(b *testing.B) {
				b.ReportAllocs()
				var bd exp.Breakdown
				for i := 0; i < b.N; i++ {
					var err error
					bd, err = exp.SimulateMultiport(p, c, s, exp.PaperElems)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(bd.Total*1e3, "ms/invocation")
				b.ReportMetric(bd.Barrier*1e3, "ms-barrier")
			})
		}
	}
}

// BenchmarkFigure4Bandwidth regenerates the paper's Figure 4: effective
// bandwidth of both methods over the 10^1..10^7-double sweep.
func BenchmarkFigure4Bandwidth(b *testing.B) {
	p := exp.PaperPlatform()
	for _, n := range exp.Figure4Lengths {
		b.Run(fmt.Sprintf("doubles=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var bc, bm exp.Breakdown
			for i := 0; i < b.N; i++ {
				var err error
				bc, err = exp.SimulateCentralized(p, exp.Figure4Client, exp.Figure4Server, n)
				if err != nil {
					b.Fatal(err)
				}
				bm, err = exp.SimulateMultiport(p, exp.Figure4Client, exp.Figure4Server, n)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(bc.Bandwidth(n*8)/1e6, "MBps-centralized")
			b.ReportMetric(bm.Bandwidth(n*8)/1e6, "MBps-multiport")
		})
	}
}

// BenchmarkUnevenSplit regenerates the §3.3 check that uneven distribution
// splits cost about the same as even ones.
func BenchmarkUnevenSplit(b *testing.B) {
	p := exp.PaperPlatform()
	b.ReportAllocs()
	var even, uneven exp.Breakdown
	for i := 0; i < b.N; i++ {
		var err error
		even, uneven, err = exp.UnevenSplit(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(even.Total*1e3, "ms-even")
	b.ReportMetric(uneven.Total*1e3, "ms-uneven")
}

// BenchmarkPipelinedInvoke measures sustained invocation throughput with a
// sliding window of outstanding non-blocking invocations per binding.
// depth=1 is the classic one-at-a-time engine; depth=8 keeps eight lanes in
// flight so consecutive invocations overlap their link latency. The client's
// outbound writes cross a modeled LAN link (a buffering pipe adding a fixed
// one-way delay without stalling the writer), because loopback TCP has no
// latency to hide — on it the comparison measures only scheduler noise,
// which on a single-CPU host drowns the effect the window exists to exploit.
func BenchmarkPipelinedInvoke(b *testing.B) {
	if testing.Short() {
		b.Skip("real stack benchmark in -short mode")
	}
	const elems = 2048 // 16 KiB of doubles: latency-bound, below streaming gate
	for _, depth := range []int{1, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			ips, err := exp.RunPipelined(exp.PipelinedConfig{
				C: 2, S: 2, Elems: elems, Reps: b.N, Depth: depth,
				LinkDelay: 250 * time.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(ips, "inv/s")
		})
	}
}

// BenchmarkAblationChunking varies the transfer chunk size: the pipelining
// granularity trade-off behind the platform's 64 KiB default.
func BenchmarkAblationChunking(b *testing.B) {
	for _, chunk := range []int{16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("chunk=%dKiB", chunk>>10), func(b *testing.B) {
			b.ReportAllocs()
			p := exp.PaperPlatform()
			p.ChunkBytes = chunk
			var bd exp.Breakdown
			for i := 0; i < b.N; i++ {
				var err error
				bd, err = exp.SimulateMultiport(p, 4, 4, exp.PaperElems)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(bd.Total*1e3, "ms/invocation")
		})
	}
}

// BenchmarkAblationWindow varies the per-flow send window: window 1 is the
// fully synchronous rendezvous, large windows approximate asynchronous
// buffering.
func BenchmarkAblationWindow(b *testing.B) {
	for _, win := range []int{1, 2, 4, 16, 64} {
		b.Run(fmt.Sprintf("window=%d", win), func(b *testing.B) {
			b.ReportAllocs()
			p := exp.PaperPlatform()
			p.Window = win
			var bd exp.Breakdown
			for i := 0; i < b.N; i++ {
				var err error
				bd, err = exp.SimulateMultiport(p, 4, 2, exp.PaperElems)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(bd.Total*1e3, "ms/invocation")
		})
	}
}

// BenchmarkAblationGatherTree compares the RTS gather algorithms (flat
// centralized receive vs binomial tree) on the real run-time system.
func BenchmarkAblationGatherTree(b *testing.B) {
	for _, alg := range []struct {
		name string
		alg  rts.GatherAlgorithm
	}{{"flat", rts.GatherFlat}, {"binomial", rts.GatherBinomial}} {
		for _, ranks := range []int{4, 8, 16} {
			b.Run(fmt.Sprintf("%s/ranks=%d", alg.name, ranks), func(b *testing.B) {
				b.ReportAllocs()
				w := rts.NewWorld(ranks, rts.Options{RecvTimeout: 30 * time.Second, Gather: alg.alg})
				defer w.Close()
				payload := make([]byte, 64<<10)
				b.SetBytes(int64(len(payload) * ranks))
				b.ResetTimer()
				err := w.Run(func(c *rts.Comm) error {
					for i := 0; i < b.N; i++ {
						if _, err := c.Gather(0, payload); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
