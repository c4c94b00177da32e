// Command pardis-bench regenerates the paper's evaluation: Table 1
// (centralized argument transfer), Table 2 (multi-port argument transfer),
// the §3.3 uneven-split check, and Figure 4 (effective bandwidth versus
// sequence length), on the discrete-event model of the 1997 platform and —
// optionally — on the real PARDIS stack over loopback TCP.
//
// Usage:
//
//	pardis-bench                  # all simulated experiments
//	pardis-bench -table 1         # just Table 1
//	pardis-bench -table 2         # just Table 2
//	pardis-bench -table uneven    # the uneven-split check
//	pardis-bench -figure 4        # just Figure 4
//	pardis-bench -real -c 4 -s 4 -elems 262144 -reps 5
//	pardis-bench -overload          # admission-control shedding demo
//	pardis-bench -failover          # replica failover + breaker recovery demo
//	pardis-bench -swarm -clients 10000
//	                                # massive fan-in: 10k concurrent clients
//	                                # over multiplexed shared connections
//	pardis-bench -real -memprofile mem.pprof -cpuprofile cpu.pprof
//	                                # profile the real data plane
//	pardis-bench -real -metrics     # print a JSON metrics snapshot after the run
//	pardis-bench -real -spandump spans.txt
//	                                # record per-invocation trace spans
//	                                # (inspect with pardis-wiredump -spans)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/dseq"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/rts"
	"repro/internal/zcodec"
)

func main() {
	table := flag.String("table", "", "regenerate one table: 1, 2, or uneven")
	figure := flag.String("figure", "", "regenerate one figure: 4")
	real := flag.Bool("real", false, "measure the real stack over loopback instead of simulating")
	c := flag.Int("c", 4, "(real mode) client computing threads")
	s := flag.Int("s", 4, "(real mode) server computing threads")
	elems := flag.Int("elems", 1<<18, "(real mode) sequence length in doubles")
	reps := flag.Int("reps", 5, "(real mode) repetitions")
	overload := flag.Bool("overload", false, "run the admission-control overload scenario")
	failover := flag.Bool("failover", false, "run the replica failover scenario")
	swarm := flag.Bool("swarm", false, "run the massive fan-in swarm benchmark")
	resize := flag.Int("resize", 0, "run the elastic-membership scenario with this many resizes")
	maxThreads := flag.Int("max-threads", 4, "(resize mode) membership cycles between 1 and this many threads")
	clients := flag.Int("clients", 16, "(overload/swarm mode) concurrent clients")
	requests := flag.Int("requests", 60, "(overload/failover/swarm mode) requests per client")
	sharedConns := flag.Int("shared-conns", 0, "(swarm mode) multiplexed connections; 0 picks one per 256 clients")
	workDelay := flag.Duration("work-delay", 0, "(swarm mode) simulated servant work per request")
	payload := flag.Int("payload", 512, "(swarm mode) echoed payload bytes")
	maxInFlight := flag.Int("max-in-flight", 0, "(swarm mode) server MaxInFlight; 0 uses the default")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	metrics := flag.Bool("metrics", false, "(real mode) print a JSON metrics snapshot after the run")
	spandump := flag.String("spandump", "", "(real mode) write per-invocation trace spans to this file")
	compress := flag.String("compress", "off", "(real mode) wire compression: off, delta, xor, all, always (codecs applied unconditionally), or auto (per-leg adaptive decision)")
	bandwidth := flag.Int("bandwidth", 0, "(real mode) throttle the client link to this many bytes/sec each way (0 = raw loopback)")
	flag.Parse()

	compMask, compPolicy, err := zcodec.ParseMode(*compress)
	if err != nil {
		log.Fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Written after the selected experiment runs, so the profile shows
		// the data plane's steady-state allocation sites.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *resize > 0 {
		runResize(*resize, *clients, *elems, *maxThreads, compMask)
		return
	}
	if *swarm {
		runSwarm(*clients, *requests, *sharedConns, *workDelay, *payload, *maxInFlight)
		return
	}
	if *overload {
		runOverload(*clients, *requests)
		return
	}
	if *failover {
		runFailover(*requests)
		return
	}
	if *real {
		runReal(*c, *s, *elems, *reps, *metrics, *spandump, compMask, compPolicy, *bandwidth)
		return
	}
	p := exp.PaperPlatform()
	all := *table == "" && *figure == ""

	if all || *table == "1" {
		rows, err := exp.Table1(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(exp.FormatTable1(rows))
		fmt.Println()
	}
	if all || *table == "2" {
		rows, err := exp.Table2(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(exp.FormatTable2(rows))
		fmt.Println()
	}
	if all || *table == "uneven" {
		even, uneven, err := exp.UnevenSplit(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Uneven split check (§3.3, c=3 s=5, %d doubles):\n", exp.PaperElems)
		fmt.Printf("  even    total %7.1f ms\n", even.Total*1e3)
		fmt.Printf("  uneven  total %7.1f ms (ratio %.2f — \"of comparable efficiency\")\n",
			uneven.Total*1e3, uneven.Total/even.Total)
		fmt.Println()
	}
	if all || *figure == "4" {
		pts, err := exp.Figure4(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(exp.FormatFigure4(pts, exp.Figure4Client, exp.Figure4Server))
	}
}

func runReal(c, s, elems, reps int, metrics bool, spandump string, compMask uint8, compPolicy zcodec.Policy, bandwidth int) {
	fmt.Printf("real stack over loopback: c=%d s=%d, %d doubles, %d reps", c, s, elems, reps)
	if compMask != 0 {
		fmt.Printf(", compression %s (%s)", zcodec.MaskString(compMask), compPolicy)
	}
	if bandwidth > 0 {
		fmt.Printf(", link %d B/s", bandwidth)
	}
	fmt.Println()
	var reg *obs.Registry
	var rec *obs.Recorder
	if metrics {
		reg = obs.NewRegistry()
		rts.EnableMetrics(reg)
		dseq.EnableMetrics(reg)
		zcodec.EnableMetrics(reg)
	}
	if spandump != "" {
		rec = obs.NewRecorder(0) // the default capacity
	}
	zcodec.ResetStats()
	run := func(m core.Method) exp.Breakdown {
		bd, err := exp.RunReal(exp.RealConfig{
			C: c, S: s, Elems: elems, Reps: reps, Method: m,
			Trace: rec, Metrics: reg,
			Compression: compMask, Policy: compPolicy, BandwidthBps: bandwidth,
		})
		if err != nil {
			log.Fatal(err)
		}
		return bd
	}
	central := run(core.Centralized)
	multi := run(core.Multiport)
	fmt.Printf("  centralized  total %8.3f ms (gather %6.3f, scatter %6.3f)\n",
		central.Total*1e3, central.Gather*1e3, central.Scatter*1e3)
	fmt.Printf("  multi-port   total %8.3f ms (pack %6.3f, barrier %6.3f)\n",
		multi.Total*1e3, multi.Pack*1e3, multi.Barrier*1e3)
	fmt.Printf("  speedup %.2fx\n", central.Total/multi.Total)
	if compMask != 0 {
		if rawOut, wireOut, _, _ := zcodec.Stats(); wireOut > 0 {
			fmt.Printf("  compression  %s (%s): %d raw B -> %d wire B (%.2fx)\n",
				zcodec.MaskString(compMask), compPolicy, rawOut, wireOut, float64(rawOut)/float64(wireOut))
		} else if compPolicy == zcodec.PolicyAuto {
			fmt.Println("  compression  on but skipped by the adaptive policy (wire outran the codecs)")
		} else {
			fmt.Println("  compression  on but never engaged (transfers below streaming threshold?)")
		}
	}
	if reg != nil {
		fmt.Println("metrics snapshot:")
		if err := reg.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if rec != nil {
		f, err := os.Create(spandump)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.Dump(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d spans to %s (inspect with pardis-wiredump -spans)\n", len(rec.Spans()), spandump)
	}
}
