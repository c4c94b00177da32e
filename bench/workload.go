package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
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

const (
	// The load is one SPMD client of clientRanks threads calling one SPMD
	// object of serverRanks threads. Both are fixed, never scaled with the
	// machine, so a number means the same thing on every box.
	clientRanks = 2
	serverRanks = 2
	// callTimeout bounds every blocking step, so a wedged run ends as an
	// error instead of a hang.
	callTimeout = 60 * time.Second
	// paperElems is the paper's argument: 2^19 doubles, 4 MiB.
	paperElems = 1 << 19
	// smallElems is a 1 KiB argument, well under the streaming threshold.
	smallElems = 128
	// spanInvocations caps how many invocations of a traced loop are
	// written out as spans; the statistics still use every invocation.
	spanInvocations = 512
)

// workload is one shape of collective invocation. Each moves a single
// dsequence<double> argument of elems elements in direction dir with the
// transfer method method; z negotiates wire compression and pins it on.
type workload struct {
	name   string
	why    string // one line for BENCHMARK.json: what the workload is here to show
	elems  int
	dir    core.Dir
	method core.Method
	z      bool
}

var workloads = []workload{
	{"bulk_in_central", "paper Table 1: 4 MiB in-argument, centralized (streamed); rts gather/scatter, dseq range marshalling and one transport connection carry it",
		paperElems, core.In, core.Centralized, false},
	{"bulk_in_multiport", "paper Table 2: same payload over per-rank data connections; bypasses rts gather/scatter, so a gather/scatter gain must not show here",
		paperElems, core.In, core.Multiport, false},
	{"bulk_out_central", "4 MiB out-argument, centralized: the reply leg, which takes the whole-payload inline path and not the streamed one",
		paperElems, core.Out, core.Centralized, false},
	{"small_call_central", "1 KiB in-argument: payload layers idle, the collective skeleton and one request/reply round trip are everything",
		smallElems, core.In, core.Centralized, false},
	{"bulk_in_central_z", "bulk_in_central with compression pinned on: the only workload with zcodec and the encode-ahead send worker on the blocking path",
		paperElems, core.In, core.Centralized, true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// streamed reports whether the invocation takes the chunked centralized
// path (core's streamEligible: a centralized in-argument of two chunks or
// more), which decides the shapes the ladder runs the layers with.
func (w workload) streamed() bool {
	return w.method == core.Centralized && w.dir != core.Out && w.elems >= 2*core.DefaultStreamChunkElems
}

// ramp is the argument's contents: x[g] = s0 + g·s1, both drawn from the
// seed. Whole-valued parameters keep the sequence exactly representable,
// so sender and receiver agree to the bit, and compressible, so the
// compressed workload has something to compress on every seed.
type ramp struct{ s0, s1 float64 }

func newRamp(seed int64) ramp {
	r := rand.New(rand.NewSource(seed))
	return ramp{s0: float64(1 + r.Intn(1<<20)), s1: float64(1 + r.Intn(16))}
}

func (r ramp) at(g int) float64 { return r.s0 + float64(g)*r.s1 }

// check is the correctness oracle for one rank's share of a received
// sequence: always the global length and the first and last element of
// every owned interval, and every element when every is set.
func (r ramp) check(s *dseq.Seq[float64], length int, every bool) error {
	if s.Len() != length {
		return fmt.Errorf("sequence length %d, want %d", s.Len(), length)
	}
	local, off := s.LocalData(), 0
	for _, iv := range s.Layout().Intervals[s.Comm().Rank()] {
		if off+iv.Len > len(local) {
			return fmt.Errorf("rank owns %d elements, layout says at least %d", len(local), off+iv.Len)
		}
		step := 1
		if !every {
			step = max(iv.Len-1, 1)
		}
		for j := 0; j < iv.Len; j += step {
			if got, want := local[off+j], r.at(iv.Start+j); got != want {
				return fmt.Errorf("element %d is %v, want %v", iv.Start+j, got, want)
			}
		}
		off += iv.Len
	}
	if off != len(local) {
		return fmt.Errorf("rank owns %d elements, layout says %d", len(local), off)
	}
	return nil
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed   int64
	warm   time.Duration // time-based warm-up that calibrates the loop count
	window time.Duration // target length of the timed loop; 0 ends the run once set-up is done
	traced bool          // take per-invocation timestamps and turn the program's own tracing on
}

// runResult is what one run measured. Times are in the units the metric
// names state.
type runResult struct {
	n         int // invocations in the timed loop
	attempted int // every invocation issued, timed or not
	failed    int

	setupS, p50Ms, invPerS, cpuMsPerInv, allocsPerInv, allocKiBPerInv float64
	setupYards                                                        float64 // setupS in multiples of the bareSetup made just before it

	lat []float64 // rank 0's per-invocation wall time in ms, ascending
	// The process over the timed loop.
	gcCycles   uint32
	heapSysMiB float64
	trace      *traceLog // traced runs only
}

// traceLog holds the raw timestamps of a traced run, on the span
// recorder's clock; spans and the core.* metrics are derived from it after
// the worlds are torn down.
type traceLog struct {
	client [clientRanks]clientLog
	// upcall lists every handler entry and exit since export. The closed
	// loop is strictly sequential, so a server rank's k-th upcall belongs to
	// the client's k-th invocation; first is the k of the timed loop's start.
	upcall [serverRanks]struct{ enter, exit []int64 }
	first  int

	programSpans   uint64 // spans the program's own recorder took during the timed loop
	goroutinesPeak int
}

// clientLog is one client rank's record of the timed loop's invocations.
type clientLog struct {
	enter, exit []int64
	timing      []core.Timing
}

// server is the exported SPMD object of one run with its naming service.
type server struct {
	ns      *naming.Server
	world   *rts.World
	done    chan error
	objects [serverRanks]*core.Object
}

// startServer brings up the naming service and exports the workload's
// object on serverRanks threads, returning once every thread serves.
func startServer(w workload, data ramp, cfg runConfig, rec *recorder, tl *traceLog, reg *obs.Registry, progRec *obs.Recorder) (*server, error) {
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{ns: ns, world: rts.NewWorld(serverRanks, rts.Options{RecvTimeout: callTimeout}), done: make(chan error, 1)}

	// An out-argument's contents exist before the call, as an application's
	// result would; the handler only hands them to the sequence.
	var produced [serverRanks][]float64

	desc := core.OpDesc{Name: "xfer", Args: []core.ArgDesc{{Name: "arr", Dir: w.dir, Elem: "double"}}}
	handler := func(call *core.ServerCall) error {
		rank := call.Comm.Rank()
		var enter int64
		if cfg.traced {
			enter = rec.now()
		}
		every, err := call.In.ReadBool()
		if err != nil {
			return err
		}
		arr := core.ArgSeq[float64](call, 0)
		if w.dir == core.In {
			err = data.check(arr, w.elems, every)
		} else if err = arr.ResizeAlloc(w.elems); err == nil {
			err = arr.SetLocal(produced[rank])
		}
		if cfg.traced {
			u := &tl.upcall[rank]
			u.enter, u.exit = append(u.enter, enter), append(u.exit, rec.now())
		}
		return err
	}

	opts := core.ExportOptions{
		TypeID:     "IDL:pardis/bench:1.0",
		Multiport:  w.method == core.Multiport,
		Name:       w.name,
		NameServer: ns.Addr(),
		Trace:      progRec,
		Server:     orb.ServerOptions{Metrics: reg},
	}
	if w.z {
		opts.Compression, opts.CompressionPolicy = zcodec.Supported, zcodec.PolicyAlways
	}
	exported := make(chan error, serverRanks)
	go func() {
		s.done <- s.world.Run(func(c *rts.Comm) error {
			if w.dir == core.Out {
				seq, err := dseq.New(c, dseq.Float64, w.elems, nil)
				if err != nil {
					exported <- err
					return err
				}
				seq.FillFunc(data.at)
				produced[c.Rank()] = seq.LocalData()
			}
			obj, err := core.Export(c, opts, []core.Operation{{Desc: desc, NewArgs: core.SeqArgsFloat64(desc.Args), Handler: handler}})
			if err == nil {
				s.objects[c.Rank()] = obj
			}
			exported <- err
			if err != nil {
				return err
			}
			return obj.Serve()
		})
	}()
	for i := 0; i < serverRanks; i++ {
		if e := <-exported; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// stop closes the object on every thread, waits for the server world to
// return and closes the naming service. The world outlives Serve: thread 0
// still has to tell the others to stop.
func (s *server) stop() error {
	for _, o := range s.objects {
		if o != nil {
			o.Close()
		}
	}
	err := <-s.done
	s.world.Close()
	return errors.Join(err, s.ns.Close())
}

// calibrate warms op up collectively for about warm and returns the number
// of iterations that should fill window at the rate the warm-up ran.
// Rank 0 sizes each batch and broadcasts it after a barrier, so the only
// harness collectives sit between batches, never inside one.
func calibrate(c *rts.Comm, warm, window time.Duration, op func() error) (n, done int, err error) {
	start := time.Now()
	for batch := 1; batch > 0; {
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return 0, done, err
			}
		}
		done += batch
		// Rank 0 must not time a batch the other ranks have yet to finish.
		if err := c.Barrier(); err != nil {
			return 0, done, err
		}
		var msg []byte
		if c.Rank() == 0 {
			spent := time.Since(start)
			rate := float64(done) / spent.Seconds()
			next := int64(0)
			if left := warm - spent; left > 0 {
				next = max(int64(rate*min(left, warm/8).Seconds()), 1)
			}
			msg = rts.Int64sToBytes([]int64{next, max(int64(rate*window.Seconds()), 1)})
		}
		if msg, err = c.Bcast(0, msg); err != nil {
			return 0, done, err
		}
		v, err := rts.BytesToInt64s(msg)
		if err != nil || len(v) != 2 {
			return 0, done, fmt.Errorf("calibrate: bad broadcast: %v", err)
		}
		batch, n = int(v[0]), int(v[1])
	}
	return n, done, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// counters are the process-wide readings rank 0 takes on both sides of the
// timed loop.
type counters struct {
	mem runtime.MemStats
	cpu time.Duration
}

func readCounters() (c counters, err error) {
	runtime.ReadMemStats(&c.mem)
	c.cpu, err = cpuTime()
	return c, err
}

// watchGoroutines samples the goroutine count every 10 ms until the
// returned function is called, which reports the highest count seen.
func watchGoroutines() (peak func() int) {
	stop, done, highest := make(chan struct{}), make(chan struct{}), 0
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			highest = max(highest, runtime.NumGoroutine())
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	return func() int {
		close(stop)
		<-done
		return highest
	}
}

// runOnce performs one run of w on fresh worlds: the yardstick, set-up
// (timed as setup_s) through a cold, fully verified invocation, a
// calibrating warm-up, the timed closed loop, one more fully verified
// invocation, teardown, and the ledger checks. A run with no window is set
// up and torn down only.
// Invocation failures are counted, not returned; the error is for a run
// that could not be carried out at all.
func runOnce(w workload, cfg runConfig, rec *recorder) (runResult, error) {
	var res runResult
	data := newRamp(cfg.seed)
	baseGoroutines, basePool := runtime.NumGoroutine(), transport.PoolOutstanding()

	var (
		reg     *obs.Registry
		progRec *obs.Recorder
	)
	if cfg.traced {
		res.trace = &traceLog{}
		reg, progRec = obs.NewRegistry(), obs.NewRecorder(1<<12)
		rts.EnableMetrics(reg)
		dseq.EnableMetrics(reg)
		zcodec.EnableMetrics(reg)
		defer rts.EnableMetrics(nil)
		defer dseq.EnableMetrics(nil)
		defer zcodec.EnableMetrics(nil)
	}

	yard, err := bareSetup()
	if err != nil {
		return res, fmt.Errorf("%s: yardstick: %w", w.name, err)
	}
	setupStart := time.Now()
	srv, err := startServer(w, data, cfg, rec, res.trace, reg, progRec)
	if err != nil {
		return res, fmt.Errorf("%s: server set-up: %w", w.name, err)
	}
	setup := time.Since(setupStart)

	bindOpts := core.BindOptions{Method: w.method, Timeout: callTimeout, Trace: progRec, Metrics: reg}
	if w.z {
		bindOpts.Compression, bindOpts.CompressionPolicy = zcodec.Supported, zcodec.PolicyAlways
	}
	// The scalar argument tells the receiving side whether to verify every
	// element; both encodings are made once, outside the loops.
	scalars := map[bool][]byte{}
	for _, every := range []bool{false, true} {
		e := core.ScalarEncoder()
		e.WriteBool(every)
		scalars[every] = e.Bytes()
	}
	var attempted, failed [clientRanks]int

	clientW := rts.NewWorld(clientRanks, rts.Options{RecvTimeout: callTimeout})
	err = clientW.Run(func(c *rts.Comm) error {
		rank := c.Rank()
		length := 0
		if w.dir == core.In {
			length = w.elems
		}
		arr, err := dseq.New(c, dseq.Float64, length, nil)
		if err != nil {
			return err
		}
		arr.FillFunc(data.at)
		args := []core.DistArg{{Dir: w.dir, Seq: arr}}

		var b *core.Binding
		// invoke issues one collective invocation and applies the client's
		// side of the oracle; a failure is counted and the loop goes on.
		invoke := func(every bool, tm *core.Timing) {
			attempted[rank]++
			_, err := b.InvokeMethod(w.method, "xfer", scalars[every], args, tm)
			if err == nil && w.dir == core.Out {
				err = data.check(arr, w.elems, every)
			}
			if err != nil {
				failed[rank]++
				if failed[rank] == 1 {
					logf("%s: rank %d: invocation %d failed: %v", w.name, rank, attempted[rank], err)
				}
			}
		}

		if err := c.Barrier(); err != nil {
			return err
		}
		bindStart := time.Now()
		if b, err = core.SPMDBind(c, w.name, srv.ns.Addr(), bindOpts); err != nil {
			return err
		}
		defer b.Close()
		invoke(true, nil)
		if rank == 0 {
			res.setupS = (setup + time.Since(bindStart)).Seconds()
			res.setupYards = res.setupS / yard.Seconds()
		}
		if cfg.window == 0 {
			return nil
		}

		n, warmed, err := calibrate(c, cfg.warm, cfg.window, func() error { invoke(false, nil); return nil })
		if err != nil {
			return err
		}

		// Everything the loop stores into is allocated before the counters
		// are read, so allocations per invocation are the program's alone.
		lat := make([]time.Duration, n)
		var (
			tm     *core.Timing
			log    *clientLog
			before counters
			spans0 uint64
			peak   func() int
		)
		if cfg.traced {
			log = &res.trace.client[rank]
			log.enter, log.exit, log.timing = make([]int64, n), make([]int64, n), make([]core.Timing, n)
			tm = new(core.Timing)
		}
		if rank == 0 {
			if cfg.traced {
				res.trace.first = 1 + warmed
				spans0, peak = progRec.Total(), watchGoroutines()
			}
			runtime.GC()
			if before, err = readCounters(); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		loopStart := time.Now()
		for i := 0; i < n; i++ {
			t := time.Now()
			invoke(false, tm)
			lat[i] = time.Since(t)
			if cfg.traced {
				log.exit[i] = rec.now()
				log.enter[i] = log.exit[i] - int64(lat[i])
				log.timing[i] = *tm
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			wall := time.Since(loopStart)
			after, err := readCounters()
			if err != nil {
				return err
			}
			if cfg.traced {
				res.trace.programSpans, res.trace.goroutinesPeak = progRec.Total()-spans0, peak()
			}
			res.n = n
			res.lat = make([]float64, n)
			for i, d := range lat {
				res.lat[i] = float64(d) / float64(time.Millisecond)
			}
			res.lat = sorted(res.lat)
			res.p50Ms = quantile(res.lat, 0.5)
			res.invPerS = float64(n) / wall.Seconds()
			res.cpuMsPerInv = float64(after.cpu-before.cpu) / float64(time.Millisecond) / float64(n)
			res.allocsPerInv = float64(after.mem.Mallocs-before.mem.Mallocs) / float64(n)
			res.allocKiBPerInv = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / float64(n)
			res.gcCycles = after.mem.NumGC - before.mem.NumGC
			res.heapSysMiB = float64(after.mem.HeapSys) / (1 << 20)
		}
		invoke(true, nil)
		return nil
	})
	clientW.Close()
	err = errors.Join(err, srv.stop())
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}

	// A returned error reaches every client rank and a failed element check
	// only the rank that owns the element, so the rank that saw the most
	// failures saw every failed invocation.
	res.attempted, res.failed = attempted[0], slices.Max(failed[:])
	// The ledgers: every pooled frame returned, every goroutine gone. A run
	// that leaves either unbalanced has no invocation that counts.
	if g, pool := ledger(baseGoroutines, basePool); g > 0 || pool != 0 {
		logf("%s: ledger unbalanced after teardown: %d goroutines over base, %d pooled frames outstanding", w.name, g, pool)
		res.failed = res.attempted
	}
	return res, nil
}

// ledger waits up to five seconds for teardown to settle and returns what
// is then still outstanding against the baseline taken beforehand:
// goroutines over it and pooled transport frames not returned.
func ledger(baseGoroutines int, basePool int64) (goroutines int, pool int64) {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		goroutines, pool = max(runtime.NumGoroutine()-baseGoroutines, 0), transport.PoolOutstanding()-basePool
		if (goroutines == 0 && pool == 0) || time.Now().After(deadline) {
			return goroutines, pool
		}
	}
}
