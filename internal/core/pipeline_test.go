package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/rts"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// TestTwoBindingsOverlap is how one client keeps two calls in flight: each of
// its two threads binds twice to one object and issues a non-blocking call on
// each binding before waiting on either — an inout "scale" and an in "sum",
// both streamed, staggered by injected write delays. Every future resolves
// with its own call's results, the threads of each binding end at the same
// collective, and every frame goes back to the pool.
func TestTwoBindingsOverlap(t *testing.T) { twoBindingsOverlap(t) }

// twoBindingsOverlap is TestTwoBindingsOverlap's body, which
// TestPoisonedFrames runs too.
func twoBindingsOverlap(t *testing.T) {
	defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
	const (
		threads = 2
		rounds  = 8
		n       = 768 // 6 chunks of 128: both legs stream
	)
	tc := startCluster(t, 2, false, nil)
	plan := transport.NewFaultPlan(7)
	plan.Delay = 200 * time.Microsecond
	plan.DelayEvery = 3
	opts := BindOptions{
		Method: Centralized, Timeout: testTimeout,
		streamChunkElems: 128,
		Transport:        &transport.Options{Wrap: plan.Wrap},
	}
	var collectives [threads][2]int // per thread, each binding's engine Collectives() at the end
	tc.runClientOpts(t, threads, opts, func(c *rts.Comm, first *Binding) error {
		second, err := SPMDBind(c, "example", tc.ns.Addr(), opts)
		if err != nil {
			return err
		}
		defer second.Close()
		scaled, summed := 1.0, 0.0
		for r := 0; r < rounds; r++ {
			a, err := dseq.New(c, dseq.Float64, n, nil)
			if err != nil {
				return err
			}
			a.FillFunc(func(int) float64 { return scaled })
			s, err := dseq.New(c, dseq.Float64, n, nil)
			if err != nil {
				return err
			}
			summed = float64(r + 1)
			s.FillFunc(func(int) float64 { return summed })
			fa := first.InvokeNB("scale", scaleScalars(2), []DistArg{InOutSeq(a)})
			fs := second.InvokeNB("sum", ScalarEncoder().Bytes(), []DistArg{InSeq(s)})
			sum, err := fs.Wait()
			if err != nil {
				return fmt.Errorf("round %d: sum: %w", r, err)
			}
			d, err := ScalarDecoder(sum)
			if err != nil {
				return err
			}
			if got, err := d.ReadDouble(); err != nil || got != summed*n {
				return fmt.Errorf("round %d: sum %v (%v), want %v", r, got, err, summed*n)
			}
			if _, err := fa.Wait(); err != nil {
				return fmt.Errorf("round %d: scale: %w", r, err)
			}
			scaled *= 2
			if err := wantElems(a, func(int) float64 { return scaled }); err != nil {
				return fmt.Errorf("round %d: scale: %w", r, err)
			}
		}
		collectives[c.Rank()] = [2]int{first.Comm().Collectives(), second.Comm().Collectives()}
		return nil
	})
	for r := 1; r < threads; r++ {
		if collectives[r] != collectives[0] {
			t.Errorf("thread %d's bindings end at collectives %v, thread 0's at %v", r, collectives[r], collectives[0])
		}
	}
}

// TestPipelineErrBusy checks the one-call latch at its edge: an invocation
// issued while the binding's lane is still carrying one fails with ErrBusy on
// every rank, and the binding keeps working afterwards.
func TestPipelineErrBusy(t *testing.T) {
	tc := startCluster(t, 1, false, nil)
	opts := BindOptions{Method: Centralized, Timeout: testTimeout}
	tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
		seq, err := dseq.New(c, dseq.Float64, 64, nil)
		if err != nil {
			return err
		}
		seq.FillFunc(func(int) float64 { return 1 })
		// Make the lane busy by taking its token directly — deterministic on
		// every rank, unlike racing a real invocation.
		<-b.lane.free
		f := b.InvokeNB("sum", ScalarEncoder().Bytes(), []DistArg{InSeq(seq)})
		if _, err := f.Wait(); !errors.Is(err, ErrBusy) {
			return fmt.Errorf("a second call in flight: %v, want ErrBusy", err)
		}
		if _, err := b.Invoke("sum", ScalarEncoder().Bytes(), []DistArg{InSeq(seq)}); !errors.Is(err, ErrBusy) {
			return fmt.Errorf("a blocking call beside one in flight: %v, want ErrBusy", err)
		}
		b.lane.free <- struct{}{}
		// The refused calls ran no collective, so the next call succeeds.
		reply, err := b.Invoke("sum", ScalarEncoder().Bytes(), []DistArg{InSeq(seq)})
		if err != nil {
			return fmt.Errorf("after ErrBusy: %w", err)
		}
		d, err := ScalarDecoder(reply)
		if err != nil {
			return err
		}
		if got, err := d.ReadDouble(); err != nil || got != 64 {
			return fmt.Errorf("after ErrBusy: sum %v err %v, want 64", got, err)
		}
		return nil
	})
}

// TestStreamedChunkAllocs is the allocation guard for the chunked transfer
// path, at two client and two server threads, in each direction: the marginal
// cost of each extra chunk in a streamed invocation's steady state is no heap
// object at all. The sender gathers into a ring slot and reuses its Data
// message; the receiver's frame comes from the pool and the struct it is
// decoded into from the recycled ones, and both go back with Release; a chunk
// one thread owns whole crosses the runtime system in one rented buffer, with
// no per-rank slice on either end. A direct leg runs the same mover between the
// owning threads: its rows hold it to the same budget. Measured across the
// whole process, so it bounds both sides of the leg.
func TestStreamedChunkAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement in -short mode or with pools the race detector empties")
	}
	const (
		chunk      = 256
		smallElems = 8 * chunk  // 8 chunks in the leg
		bigElems   = 40 * chunk // 40 chunks in the leg
		calls      = 20
		// What the 32 extra chunks may cost each: pool buffers the collector
		// took between two calls and the odd runtime object. Two objects a
		// chunk — the decoded Data message, and the gather's or the scatter's
		// per-rank slice on every other one — is what this measured before.
		budget = 0.25
	)
	tc := startCluster(t, 2, true, nil)
	opts := BindOptions{Method: Centralized, Timeout: testTimeout, streamChunkElems: chunk}
	tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
		in := func(method Method) func(seq *dseq.Seq[float64], elems int) error {
			return func(seq *dseq.Seq[float64], _ int) error {
				_, err := b.InvokeMethod(method, "sum", ScalarEncoder().Bytes(), []DistArg{InSeq(seq)}, nil)
				return err
			}
		}
		out := func(method Method) func(seq *dseq.Seq[float64], elems int) error {
			return func(seq *dseq.Seq[float64], elems int) error {
				n := ScalarEncoder()
				n.WriteLong(int32(elems))
				_, err := b.InvokeMethod(method, "iota", n.Bytes(), []DistArg{OutSeq(seq)}, nil)
				return err
			}
		}
		legs := []struct {
			name string
			call func(seq *dseq.Seq[float64], elems int) error
		}{{"in", in(Centralized)}, {"out", out(Centralized)}, {"direct in", in(Multiport)}, {"direct out", out(Multiport)}}
		for _, leg := range legs {
			var objects [2]float64
			for i, elems := range []int{smallElems, bigElems} {
				seq, err := dseq.New(c, dseq.Float64, elems, nil)
				if err != nil {
					return err
				}
				seq.FillFunc(func(int) float64 { return 1 })
				if _, objects[i], err = costPerCall(c, calls, func() error { return leg.call(seq, elems) }); err != nil {
					return err
				}
			}
			if c.Rank() != 0 {
				continue
			}
			perChunk := (objects[1] - objects[0]) / ((bigElems - smallElems) / chunk)
			t.Logf("streamed %s call: %.1f objects at %d chunks, %.1f at %d (%.2f per extra chunk)",
				leg.name, objects[0], smallElems/chunk, objects[1], bigElems/chunk, perChunk)
			if perChunk > budget {
				return fmt.Errorf("streamed %s leg allocates %.2f objects per extra chunk, budget %.2f", leg.name, perChunk, budget)
			}
		}
		return nil
	})
}

// TestSmallCallAllocs is the allocation guard for the fixed skeleton: the
// smallest call — a 128-element in argument in the message, at two client and
// two server threads, the benchmark's small_call_central — may allocate 1
// heap object across the whole process, both sides together. What is left is
// a fresh slab for the lane's broadcasts every hundred calls or so, and the
// pools' refills after a collection.
// Measured on a 2-core x86-64 Xeon: 0.06 objects per call; 5.04 while the
// request and reply bodies were read into fresh frames, their messages were
// decoded into fresh structs and the reply header's broadcast was rendered
// afresh; 15.06 while the
// client lane's request encoder (and its two growths), its token broadcast,
// the Request and Reply messages, the adapter's argument decoder, server
// thread 0's directive and reply encoder and its scatter's per-rank table were
// fresh per call; 29.05 while every
// thread decoded each header, and each layout in it, into fresh storage and
// the client built its request header afresh; 41.1 while every
// call built its server-side sequences afresh (the lengths and argument
// slices, each sequence, its storage and its Block layout); 61.1 while every
// agreement's gather allocated a per-rank slice at its root, the await timer,
// the pending call, the upcall's ServerCall and the directive's header were
// fresh per call, and each call rendered the reference's profile addresses
// again.
func TestSmallCallAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement in -short mode or with pools the race detector empties")
	}
	const (
		calls  = 2000
		budget = 1
	)
	tc := startClusterOps(t, 2, false, func() []Operation { return shapeOps(func(*ServerCall) {}) })
	tc.runClientOpts(t, 2, BindOptions{Timeout: testTimeout}, func(c *rts.Comm, b *Binding) error {
		arr, err := dseq.New(c, dseq.Float64, 128, nil)
		if err != nil {
			return err
		}
		scalars, args := ScalarEncoder().Bytes(), []DistArg{InSeq(arr)}
		put := func() error {
			_, err := b.Invoke("put", scalars, args)
			return err
		}
		for i := 0; i < 100; i++ { // pools, connections and the adapter's worker
			if err := put(); err != nil {
				return err
			}
		}
		_, objects, err := costPerCall(c, calls, put)
		if err != nil || c.Rank() != 0 {
			return err
		}
		t.Logf("small in-message call: %.2f objects per call", objects)
		if objects > budget {
			return fmt.Errorf("a small in-message call allocates %.2f objects, budget %d", objects, budget)
		}
		return nil
	})
}

// TestFramedCallAllocs is the allocation guard for a framed receive leg: a
// 2^19-element in argument between two client and two server threads, the
// benchmark's bulk_in_central and bulk_in_multiport, may allocate 12 KiB per
// call across the whole process, both sides together, and 4 objects
// centralized, 5 multi-port. The receive leg's sink outlives the call on both
// sides — a server thread reissues its spare bucket, a client lane keeps its
// sink — and so does the timer its waits arm, every thread decodes its
// headers in place, and the per-call scratch of the small call is kept the
// same way; a direct leg plans into storage its owner keeps — the lane, the
// object's thread — a sender resolves each destination's connection by an
// address rendered at bind, the lane keeps the channel its launched
// exchange answers on, and the request and the reply live in rented frames
// (see TestSmallCallAllocs), so what is left is the skeleton, the launched
// exchange's and the sender's goroutines, and pool refills.
// Measured on a 2-core x86-64 Xeon: 0.6 KiB and 2.7 objects centralized,
// 0.2 KiB and 3.5 objects multi-port; 0.7 KiB and 7.6 objects centralized,
// 0.8 KiB and 8.4 objects multi-port while the request and the reply were
// read into fresh storage; 1.6 KiB and 12.4 objects centralized,
// 2.4 KiB and 32.4 objects multi-port while every direct leg planned into fresh
// storage and every leg rendered its connections' addresses;
// 1.9 KiB and 20.6 objects centralized,
// 3.0 KiB and 40.3 multi-port while that scratch was fresh per call (see
// TestSmallCallAllocs); 34.5 and 54.3 objects while every
// thread decoded its headers into fresh storage; 67.4 KiB and 47.5 objects
// centralized while every call made its buckets' 4 096-slot channels, their
// conns maps and its frame-wait timers afresh, one bucket on the thread that
// reads no frame.
//
// Under the race detector the calls still run, fewer of them, for the
// ownership changes of the sinks, and the test skips the measurement.
func TestFramedCallAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	const (
		elems = 1 << 19
		kib   = 12
	)
	objects := map[Method]float64{Centralized: 4, Multiport: 5}
	calls := 200
	if raceEnabled {
		calls = 5
	}
	tc := startClusterOps(t, 2, true, func() []Operation { return shapeOps(func(*ServerCall) {}) })
	tc.runClient(t, 2, Centralized, func(c *rts.Comm, b *Binding) error {
		arr, err := dseq.New(c, dseq.Float64, elems, nil)
		if err != nil {
			return err
		}
		scalars, args := ScalarEncoder().Bytes(), []DistArg{InSeq(arr)}
		for _, method := range []Method{Centralized, Multiport} {
			put := func() error {
				_, err := b.InvokeMethod(method, "put", scalars, args, nil)
				return err
			}
			for i := 0; i < 10; i++ { // pools, connections, buckets and sinks
				if err := put(); err != nil {
					return err
				}
			}
			bytes, objs, err := costPerCall(c, calls, put)
			if err != nil {
				return err
			}
			if c.Rank() != 0 || raceEnabled {
				continue
			}
			t.Logf("framed %s put: %.1f KiB, %.1f objects per call", method, float64(bytes)/1024, objs)
			if bytes > kib<<10 {
				return fmt.Errorf("a framed %s put allocates %.1f KiB per call, budget %d KiB", method, float64(bytes)/1024, kib)
			}
			if objs > objects[method] {
				return fmt.Errorf("a framed %s put allocates %.1f objects per call, budget %.0f", method, objs, objects[method])
			}
		}
		return nil
	})
	if raceEnabled {
		t.Skip("allocation measurement with pools the race detector empties")
	}
}

// costPerCall returns, at thread 0, the bytes and the heap objects the whole
// process allocates per collective call, over calls calls after one that warms
// pools and connections. Only thread 0 reads the process-wide counters, between
// barriers that keep the other threads' calls inside the window.
func costPerCall(c *rts.Comm, calls int, call func() error) (bytes uint64, objects float64, err error) {
	if err := call(); err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	if c.Rank() == 0 {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	if err := c.Barrier(); err != nil {
		return 0, 0, err
	}
	for i := 0; i < calls; i++ {
		if err := call(); err != nil {
			return 0, 0, err
		}
	}
	if err := c.Barrier(); err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(calls), float64(after.Mallocs-before.Mallocs) / float64(calls), nil
}

// TestStreamedByteBudget is the byte guard beside the allocation-count guards,
// for the streamed legs, the paper's Table 1 transfer and its mirror image: an
// argument of N bytes moved chunk by chunk between two client and two server
// threads, as an in argument or as an out result, may
// allocate 0.01 N across the whole process. Nothing payload-sized is allocated (DESIGN.md §10): the server
// resets the argument storage of the call before in place and reissues its
// spare data bucket, and chunk encoders, gather parts, scatter pieces and
// transport frames are all recycled. What is left is the pool refills after a
// collection and, on a multi-port out call, the bucket a client thread's
// attachment opens when it reaches a server thread whose call is over:
// measured on a 2-core x86-64 Xeon, 1–6 KiB (0.002 N) for any of the calls,
// after ten that warm the pools. Before the recycled buckets an in call
// allocated 0.02 N, the two 32 KiB bucket channels; before the recycled argument storage every leg allocated about
// 1.02 N; before the recycled chunk buffers the in call allocated 2.9 N; while
// results rode whole in the reply the out call allocated 3.2 N; and while a
// direct leg marshalled every move whole into a fresh buffer and read it into a
// frame of the move's size, the multi-port in call allocated 2.2 N.
func TestStreamedByteBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement in -short mode or with pools the race detector empties")
	}
	const (
		elems   = 1 << 19
		payload = elems * 8
		calls   = 200
		budget  = payload / 100
	)
	tc := startCluster(t, 2, true, nil)
	opts := BindOptions{Method: Centralized, Timeout: testTimeout}
	tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
		in, err := dseq.New(c, dseq.Float64, elems, nil)
		if err != nil {
			return err
		}
		in.FillFunc(func(int) float64 { return 1 })
		out, err := dseq.New(c, dseq.Float64, 0, nil)
		if err != nil {
			return err
		}
		n := ScalarEncoder()
		n.WriteLong(elems)
		if legChunkElems(b.chunkElems, 1, func(int) int { return elems }) == 0 {
			return fmt.Errorf("a %d-element argument does not take the streamed path", elems)
		}
		sum := func(method Method) func() error {
			return func() error {
				_, err := b.InvokeMethod(method, "sum", ScalarEncoder().Bytes(), []DistArg{InSeq(in)}, nil)
				return err
			}
		}
		iota := func(method Method) func() error {
			return func() error {
				_, err := b.InvokeMethod(method, "iota", n.Bytes(), []DistArg{OutSeq(out)}, nil)
				return err
			}
		}
		for _, leg := range []struct {
			name string
			call func() error
		}{{"in", sum(Centralized)}, {"out", iota(Centralized)}, {"multi-port in", sum(Multiport)}, {"multi-port out", iota(Multiport)}} {
			for i := 0; i < 10; i++ { // pools, buckets and sinks
				if err := leg.call(); err != nil {
					return err
				}
			}
			perCall, _, err := costPerCall(c, calls, leg.call)
			if err != nil {
				return err
			}
			if c.Rank() != 0 {
				continue
			}
			t.Logf("streamed %s call: %d KiB allocated per %d KiB moved (%.3fx)", leg.name, perCall>>10, payload>>10, float64(perCall)/payload)
			if perCall > budget {
				return fmt.Errorf("streamed %s call allocates %d bytes, budget %d (0.01x its %d-byte payload)", leg.name, perCall, budget, payload)
			}
		}
		if got := out.LocalData()[0]; out.Len() != elems || got != float64(c.Rank()*elems/2)+0.5 {
			return fmt.Errorf("rank %d: out result length %d, first element %v", c.Rank(), out.Len(), got)
		}
		return nil
	})
}

// TestSpansAllocFreeWhenTracingOff pins the per-chunk observability cost when
// no recorder is attached: the span helpers sit on the chunk hot loops, so
// with tracing off they must record nothing and allocate nothing.
func TestSpansAllocFreeWhenTracingOff(t *testing.T) {
	iv := &invocation{b: &Binding{}, token: 7}
	o := &Object{}
	allocs := testing.AllocsPerRun(200, func() {
		iv.phase(obs.PhaseChunkSend, time.Time{}, time.Millisecond)
		iv.phase(obs.PhaseChunkRecv, time.Time{}, time.Millisecond)
		o.span(7, obs.PhaseChunkRecv, time.Time{}, 0)
	})
	if allocs != 0 {
		t.Fatalf("span helpers with tracing off allocate %.1f/run, want 0", allocs)
	}
}
