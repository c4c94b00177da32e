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

// pendingCheck records what a window slot's outstanding invocation must
// deliver when its future resolves.
type pendingCheck struct {
	op      string
	wantVal float64 // value every element must hold after completion
	wantSum float64 // expected "sum" reply (op == "sum" only)
}

// TestPipelinedWindowStress keeps a window of overlapping invocations
// outstanding per binding — chunk-streamed both ways, staggered by injected
// write delays — and checks every future resolves with its own invocation's
// results (no cross-token mixups) and no goroutines leak. Run under -race via
// the race Makefile target, this is the data-race check for the lane engine.
func TestPipelinedWindowStress(t *testing.T) {
	testutil.CheckGoroutines(t, "stress", func(t *testing.T) {
		const (
			depth = 4
			reps  = 24
			n     = 768 // 6 chunks of 128: every invocation streams both legs
		)
		tc := startCluster(t, 2, false, nil)
		plan := transport.NewFaultPlan(7)
		plan.Delay = 200 * time.Microsecond
		plan.DelayEvery = 3
		opts := BindOptions{
			Method: Centralized, Timeout: testTimeout,
			PipelineDepth:    depth,
			StreamChunkElems: 128,
			Transport:        &transport.Options{Wrap: plan.Wrap},
		}
		tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
			if got := b.PipelineDepth(); got != depth {
				return fmt.Errorf("PipelineDepth() = %d, want %d", got, depth)
			}
			// Each window slot owns its sequence and a distinct element value,
			// so a reply delivered to the wrong token is detectable.
			seqs := make([]*dseq.Seq[float64], depth)
			vals := make([]float64, depth)
			for s := range seqs {
				seq, err := dseq.New(c, dseq.Float64, n, nil)
				if err != nil {
					return err
				}
				vals[s] = float64(s + 1)
				v := vals[s]
				seq.FillFunc(func(int) float64 { return v })
				seqs[s] = seq
			}
			window := make([]*Future, depth)
			pending := make([]pendingCheck, depth)

			settle := func(s int) error {
				f := window[s]
				if f == nil {
					return nil
				}
				window[s] = nil
				reply, err := f.Wait()
				if err != nil {
					return fmt.Errorf("slot %d (%s): %w", s, pending[s].op, err)
				}
				d, err := ScalarDecoder(reply)
				if err != nil {
					return err
				}
				switch pending[s].op {
				case "scale":
					got, err := d.ReadLong()
					if err != nil {
						return err
					}
					if got != n {
						return fmt.Errorf("slot %d: scale reply %d, want %d", s, got, n)
					}
				case "sum":
					got, err := d.ReadDouble()
					if err != nil {
						return err
					}
					if got != pending[s].wantSum {
						return fmt.Errorf("slot %d: sum reply %v, want %v", s, got, pending[s].wantSum)
					}
				}
				for i, v := range seqs[s].LocalData() {
					if v != pending[s].wantVal {
						return fmt.Errorf("slot %d: element %d holds %v, want %v", s, i, v, pending[s].wantVal)
					}
				}
				return nil
			}

			for rep := 0; rep < reps; rep++ {
				s := rep % depth
				if err := settle(s); err != nil {
					return err
				}
				if rep%2 == 0 {
					// scale doubles the slot's value in place (InOut, streamed
					// both directions).
					pending[s] = pendingCheck{op: "scale", wantVal: vals[s] * 2}
					vals[s] *= 2
					window[s] = b.InvokeNB("scale", scaleScalars(2), []DistArg{InOutSeq(seqs[s])})
				} else {
					// sum reads the slot's value (In, streamed request leg) —
					// powers of two times small integers, so sums are exact.
					pending[s] = pendingCheck{op: "sum", wantVal: vals[s], wantSum: vals[s] * n}
					window[s] = b.InvokeNB("sum", ScalarEncoder().Bytes(), []DistArg{InSeq(seqs[s])})
				}
			}
			for s := range window {
				if err := settle(s); err != nil {
					return err
				}
			}
			// The engine is still healthy after the storm: a blocking call works.
			reply, err := b.Invoke("sum", ScalarEncoder().Bytes(), []DistArg{InSeq(seqs[0])})
			if err != nil {
				return err
			}
			d, err := ScalarDecoder(reply)
			if err != nil {
				return err
			}
			got, err := d.ReadDouble()
			if err != nil {
				return err
			}
			if want := vals[0] * n; got != want {
				return fmt.Errorf("final sum %v, want %v", got, want)
			}
			return nil
		})
	})
}

// TestPipelineErrBusy checks the lane discipline at its edge: an invocation
// issued while its round-robin lane is still carrying one fails with ErrBusy
// on every rank, the cursor still advances (so all ranks stay in lockstep),
// and the binding keeps working afterwards.
func TestPipelineErrBusy(t *testing.T) {
	tc := startCluster(t, 1, false, nil)
	opts := BindOptions{Method: Centralized, Timeout: testTimeout, PipelineDepth: 2}
	tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
		seq, err := dseq.New(c, dseq.Float64, 64, nil)
		if err != nil {
			return err
		}
		seq.FillFunc(func(int) float64 { return 1 })
		// Make the next round-robin lane busy by taking its token directly —
		// deterministic on every rank, unlike racing a real invocation.
		b.laneMu.Lock()
		ln := &b.lanes[b.laneSeq%uint64(len(b.lanes))]
		b.laneMu.Unlock()
		<-ln.free
		f := b.InvokeNB("sum", ScalarEncoder().Bytes(), []DistArg{InSeq(seq)})
		if _, err := f.Wait(); !errors.Is(err, ErrBusy) {
			return fmt.Errorf("overflowing the window: %v, want ErrBusy", err)
		}
		ln.free <- struct{}{}
		// The failed issue advanced the cursor on every rank equally, so the
		// binding is still coherent: the next collective call succeeds.
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

// TestPipelineDepthClamps pins the lane-count policy: zero and one both mean
// the classic engine, and absurd depths clamp to maxPipelineDepth instead of
// allocating thousands of communicator contexts.
func TestPipelineDepthClamps(t *testing.T) {
	tc := startCluster(t, 1, false, nil)
	for _, tt := range []struct{ ask, want int }{{0, 1}, {1, 1}, {3, 3}, {10 * maxPipelineDepth, maxPipelineDepth}} {
		opts := BindOptions{Method: Centralized, Timeout: testTimeout, PipelineDepth: tt.ask}
		tc.runClientOpts(t, 1, opts, func(c *rts.Comm, b *Binding) error {
			if got := b.PipelineDepth(); got != tt.want {
				return fmt.Errorf("PipelineDepth(ask %d) = %d, want %d", tt.ask, got, tt.want)
			}
			return nil
		})
	}
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
	opts := BindOptions{Method: Centralized, Timeout: testTimeout, StreamChunkElems: chunk}
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
// two server threads, the benchmark's small_call_central — may allocate 31
// heap objects across the whole process, both sides together. Most of them are
// the exchange's: the header each side decodes, the request and reply bodies.
// Measured on a 2-core x86-64 Xeon: 29.05 objects per call; 41.1 while every
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
		budget = 31
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
// threads, as an in argument or as an out result, shard-routed or not, may
// allocate 0.1 N across the whole process. Nothing payload-sized is allocated
// (DESIGN.md §10): the server resets the argument storage of the call before
// in place, and chunk encoders, gather parts, scatter pieces and transport
// frames are all recycled. What is left is the server's two bucket channels
// and the pool refills after a collection: measured on a 2-core x86-64 Xeon,
// 0.01–0.03 N for an in call, 0.00–0.01 N for an out call, 0.02 N multi-port
// either way. Before the recycled argument storage every leg allocated about
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
		calls   = 40
		budget  = payload / 10
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
		sum := func(method Method, key []byte) func() error {
			return func() error {
				_, err := b.invokeBlocking(method, "sum", key, ScalarEncoder().Bytes(), []DistArg{InSeq(in)}, nil)
				return err
			}
		}
		iota := func(method Method, key []byte) func() error {
			return func() error {
				_, err := b.invokeBlocking(method, "iota", key, n.Bytes(), []DistArg{OutSeq(out)}, nil)
				return err
			}
		}
		key := []byte("shard")
		for _, leg := range []struct {
			name string
			call func() error
		}{{"in", sum(Centralized, nil)}, {"out", iota(Centralized, nil)}, {"multi-port in", sum(Multiport, nil)}, {"multi-port out", iota(Multiport, nil)},
			{"sharded in", sum(Centralized, key)}, {"sharded out", iota(Centralized, key)}} {
			perCall, _, err := costPerCall(c, calls, leg.call)
			if err != nil {
				return err
			}
			if c.Rank() != 0 {
				continue
			}
			t.Logf("streamed %s call: %d KiB allocated per %d KiB moved (%.2fx)", leg.name, perCall>>10, payload>>10, float64(perCall)/payload)
			if perCall > budget {
				return fmt.Errorf("streamed %s call allocates %d bytes, budget %d (0.1x its %d-byte payload)", leg.name, perCall, budget, payload)
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
