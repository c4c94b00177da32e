package exp

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/transport"
	"repro/internal/zcodec"
)

// RealConfig describes one real-stack measurement: a c-thread SPMD client
// invoking an s-thread SPMD object over loopback TCP with one "in"
// dsequence<double> of Elems elements, Reps times, using Method.
type RealConfig struct {
	C, S   int
	Elems  int
	Reps   int
	Method core.Method
	// Trace and Metrics, when set, thread observability through both sides
	// of the measured stack: client-side bind/invoke phase spans and
	// server-side queue/upcall/transfer spans land in Trace, while adapter
	// and client resilience counters land in Metrics. Tracing records spans
	// only: the frames on the wire are the same with it on or off.
	Trace   *obs.Recorder
	Metrics *obs.Registry
	// Compression is the zcodec codec mask both sides send with
	// (BindOptions.Compression for requests, ExportOptions.Compression for
	// replies). Zero measures the raw wire. Compression engages on
	// centralized streamed transfers; the multi-port method ignores it.
	Compression uint8
	// Policy is the per-leg compression policy both sides apply
	// (BindOptions.CompressionPolicy / ExportOptions.CompressionPolicy).
	// The zero value is PolicyAuto: the unmeasured warmup invocation seeds
	// the bandwidth and encode-throughput estimators, and the measured
	// reps then compress only where the estimator says it nets out. Use
	// PolicyAlways to measure the codec unconditionally.
	Policy zcodec.Policy
	// BandwidthBps, when positive, throttles every client-side connection
	// to that many bytes per second in each direction — a simulated
	// low-bandwidth link where compression's byte savings become
	// wall-clock savings.
	BandwidthBps int
}

// RunReal executes the configuration on the real PARDIS stack and returns
// the mean client-side breakdown (communicating thread's view). This is the
// measured counterpart of the simulated tables: absolute values reflect the
// host machine rather than the paper's 1997 testbed, but the relative
// behaviour of the two transfer methods is directly comparable.
func RunReal(cfg RealConfig) (Breakdown, error) {
	if cfg.C < 1 || cfg.S < 1 || cfg.Elems < 0 || cfg.Reps < 1 {
		return Breakdown{}, fmt.Errorf("exp: invalid real config %+v", cfg)
	}
	const timeout = 60 * time.Second

	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		return Breakdown{}, err
	}
	defer ns.Close()

	xferDesc := core.OpDesc{Name: "xfer", Args: []core.ArgDesc{{Name: "arr", Dir: core.In, Elem: "double"}}}
	serverW := rts.NewWorld(cfg.S, rts.Options{RecvTimeout: timeout})
	defer serverW.Close()
	serverErr := make(chan error, 1)
	objects := make([]*core.Object, cfg.S)
	var objMu sync.Mutex
	ready := make(chan struct{})
	var once sync.Once
	go func() {
		serverErr <- serverW.Run(func(c *rts.Comm) error {
			obj, err := core.Export(c, core.ExportOptions{
				TypeID:            "IDL:pardis/bench:1.0",
				Multiport:         true,
				Name:              "bench",
				NameServer:        ns.Addr(),
				Trace:             cfg.Trace,
				Compression:       cfg.Compression,
				CompressionPolicy: cfg.Policy,
				Server:            orb.ServerOptions{Metrics: cfg.Metrics},
			}, []core.Operation{{
				Desc:    xferDesc,
				NewArgs: core.SeqArgsFloat64(xferDesc.Args),
				Handler: func(call *core.ServerCall) error { return nil },
			}})
			if err != nil {
				once.Do(func() { close(ready) })
				return err
			}
			objMu.Lock()
			objects[c.Rank()] = obj
			objMu.Unlock()
			if c.Rank() == 0 {
				once.Do(func() { close(ready) })
			}
			return obj.Serve()
		})
	}()
	<-ready
	defer func() {
		objMu.Lock()
		objs := append([]*core.Object(nil), objects...)
		objMu.Unlock()
		for _, o := range objs {
			if o != nil {
				o.Close()
			}
		}
		<-serverErr
	}()

	clientW := rts.NewWorld(cfg.C, rts.Options{RecvTimeout: timeout})
	defer clientW.Close()
	var mu sync.Mutex
	var sum Breakdown
	err = clientW.Run(func(c *rts.Comm) error {
		opts := core.BindOptions{
			Method: cfg.Method, Timeout: timeout,
			Trace: cfg.Trace, Metrics: cfg.Metrics,
			Compression:       cfg.Compression,
			CompressionPolicy: cfg.Policy,
		}
		if cfg.BandwidthBps > 0 {
			opts.Transport = &transport.Options{Wrap: func(rw io.ReadWriteCloser) io.ReadWriteCloser {
				return newBandwidthPipe(rw, cfg.BandwidthBps)
			}}
		}
		b, err := core.SPMDBind(c, "bench", ns.Addr(), opts)
		if err != nil {
			return err
		}
		defer b.Close()
		arr, err := dseq.New(c, dseq.Float64, cfg.Elems, nil)
		if err != nil {
			return err
		}
		arr.FillFunc(func(g int) float64 { return float64(g) })
		args := []core.DistArg{core.InSeq(arr)}
		// Warm the connections and code paths once, unmeasured.
		if _, err := b.Invoke("xfer", core.ScalarEncoder().Bytes(), args); err != nil {
			return err
		}
		for rep := 0; rep < cfg.Reps; rep++ {
			var tm core.Timing
			if _, err := b.InvokeMethod(cfg.Method, "xfer", core.ScalarEncoder().Bytes(), args, &tm); err != nil {
				return fmt.Errorf("rep %d: %w", rep, err)
			}
			if c.Rank() == 0 {
				mu.Lock()
				sum.Total += tm.Total.Seconds()
				sum.Gather += tm.Gather.Seconds()
				sum.Scatter += tm.Scatter.Seconds()
				sum.Pack += tm.Pack.Seconds()
				sum.Send += tm.SendRecv.Seconds()
				sum.RecvUnpack += tm.Unpack.Seconds()
				sum.Barrier += tm.Barrier.Seconds()
				mu.Unlock()
			}
		}
		return nil
	})
	if err != nil {
		return Breakdown{}, err
	}
	n := float64(cfg.Reps)
	sum.Total /= n
	sum.Gather /= n
	sum.Scatter /= n
	sum.Pack /= n
	sum.Send /= n
	sum.RecvUnpack /= n
	sum.Barrier /= n
	return sum, nil
}

// RunRealComparison measures both methods on the same configuration and
// reports (centralized, multiport).
func RunRealComparison(c, s, elems, reps int) (Breakdown, Breakdown, error) {
	central, err := RunReal(RealConfig{C: c, S: s, Elems: elems, Reps: reps, Method: core.Centralized})
	if err != nil {
		return Breakdown{}, Breakdown{}, err
	}
	multi, err := RunReal(RealConfig{C: c, S: s, Elems: elems, Reps: reps, Method: core.Multiport})
	if err != nil {
		return Breakdown{}, Breakdown{}, err
	}
	return central, multi, nil
}
