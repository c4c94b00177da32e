package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/bufpool"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/rts"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

// Recycled arguments: a computing thread builds an operation's sequences once
// and resets them in place before every call (served.resetArgs). These tests
// hold what makes that safe: every call sees exactly the client's data on the
// template OpDesc advertises, whatever the call before it did to its arguments
// and however it ended; storage a handler hands an argument stays the
// application's; and what a thread keeps is bounded, and let go with Serve.

// indexPlus is the data the tests move: element g holds g + off.
func indexPlus(off float64) func(g int) float64 {
	return func(g int) float64 { return float64(g) + off }
}

// wantElems reports the first local element of arr that is not want(g) at its
// global index g.
func wantElems(arr *dseq.Seq[float64], want func(g int) float64) error {
	local, rank := arr.LocalData(), arr.Comm().Rank()
	if len(local) != arr.Layout().Count(rank) {
		return fmt.Errorf("thread %d: %d local elements for a layout giving it %d", rank, len(local), arr.Layout().Count(rank))
	}
	i := 0
	for _, iv := range arr.Layout().Intervals[rank] {
		for g := iv.Start; g < iv.End(); g++ {
			if local[i] != want(g) {
				return fmt.Errorf("thread %d: element %d holds %v, want %v", rank, g, local[i], want(g))
			}
			i++
		}
	}
	return nil
}

// TestRecycledArgsLeaveAdoptedStorage: a buffer a handler hands an out or an
// inout argument (SetLocal) stays the application's. Three more calls of the
// operation, whose handlers write the storage the argument has of its own,
// leave its contents as they were.
func TestRecycledArgsLeaveAdoptedStorage(t *testing.T) {
	const n, threads = 3000, 2
	give := OpDesc{Name: "give", Args: []ArgDesc{{Name: "arr", Dir: Out, Elem: "double"}}}
	keep := OpDesc{Name: "keep", Args: []ArgDesc{{Name: "arr", Dir: InOut, Elem: "double"}}}
	for _, method := range []Method{Centralized, Multiport} {
		t.Run(method.String(), func(t *testing.T) {
			var mu sync.Mutex
			var handed, contents [][]float64 // under mu
			handOver := func(arr *dseq.Seq[float64]) error {
				buf := slices.Clone(arr.LocalData())
				mu.Lock()
				handed, contents = append(handed, buf), append(contents, slices.Clone(buf))
				mu.Unlock()
				return arr.SetLocal(buf)
			}
			ops := func() []Operation {
				return []Operation{
					{Desc: give, NewArgs: SeqArgsFloat64(give.Args), Handler: func(call *ServerCall) error {
						hand, err := call.In.ReadBool()
						if err != nil {
							return err
						}
						arr := ArgSeq[float64](call, 0)
						if err := arr.ResizeAlloc(n); err != nil {
							return err
						}
						if !hand {
							arr.FillFunc(indexPlus(-5))
							return nil
						}
						arr.FillFunc(indexPlus(1000))
						return handOver(arr)
					}},
					{Desc: keep, NewArgs: SeqArgsFloat64(keep.Args), Handler: func(call *ServerCall) error {
						hand, err := call.In.ReadBool()
						if err != nil {
							return err
						}
						arr := ArgSeq[float64](call, 0)
						local := arr.LocalData()
						for i := range local {
							if hand {
								local[i] += 1000
							} else {
								local[i] = -local[i]
							}
						}
						if hand {
							return handOver(arr)
						}
						return nil
					}},
				}
			}
			tc := startClusterOps(t, threads, true, ops)
			tc.runClient(t, 2, method, func(c *rts.Comm, b *Binding) error {
				arr, err := dseq.New(c, dseq.Float64, n, nil)
				if err != nil {
					return err
				}
				out, err := dseq.New(c, dseq.Float64, 0, nil)
				if err != nil {
					return err
				}
				for k := 0; k < 4; k++ {
					hand := k == 0
					e := ScalarEncoder()
					e.WriteBool(hand)
					if _, err := b.Invoke("give", e.Bytes(), []DistArg{OutSeq(out)}); err != nil {
						return err
					}
					arr.FillFunc(indexPlus(0))
					if _, err := b.Invoke("keep", e.Bytes(), []DistArg{InOutSeq(arr)}); err != nil {
						return err
					}
					gave, kept := indexPlus(-5), func(g int) float64 { return -float64(g) }
					if hand {
						gave, kept = indexPlus(1000), indexPlus(1000)
					}
					if err := errors.Join(wantElems(out, gave), wantElems(arr, kept)); err != nil {
						return fmt.Errorf("call %d: %w", k, err)
					}
				}
				return nil
			})
			mu.Lock()
			defer mu.Unlock()
			if len(handed) != 2*threads {
				t.Fatalf("%d buffers handed over, want one per operation and thread (%d)", len(handed), 2*threads)
			}
			for i, buf := range handed {
				if !slices.Equal(buf, contents[i]) {
					t.Errorf("buffer %d, handed to an argument, was written by a later call", i)
				}
			}
		})
	}
}

// TestRecycledArgsKeepTheTemplate: a handler that redistributes its argument or
// changes its length changes nothing for the next call, which arrives on the
// template OpDesc advertises at the client's length, so a multi-port call still
// puts every element where the client's plan, built from that template, sends
// it.
func TestRecycledArgsKeepTheTemplate(t *testing.T) {
	template := dist.Cyclic{BlockSize: 3}
	desc := OpDesc{Name: "mangle", Args: []ArgDesc{{Name: "arr", Dir: In, Elem: "double", Spec: template}}}
	ops := func() []Operation {
		return []Operation{{Desc: desc, NewArgs: SeqArgsFloat64(desc.Args), Handler: func(call *ServerCall) error {
			mode, err := call.In.ReadLong()
			if err != nil {
				return err
			}
			n, err := call.In.ReadLong()
			if err != nil {
				return err
			}
			arr := ArgSeq[float64](call, 0)
			want, err := template.Layout(int(n), call.Comm.Size())
			if err != nil {
				return err
			}
			if !arr.Layout().Equal(want) {
				return fmt.Errorf("thread %d: call arrived on layout %v, want the template's %v", call.Comm.Rank(), arr.Layout(), want)
			}
			if err := wantElems(arr, indexPlus(0)); err != nil {
				return err
			}
			switch mode {
			case 1:
				return arr.Redistribute(dist.Cyclic{BlockSize: 1})
			case 2:
				return arr.SetLen(int(n) / 2)
			case 3:
				return arr.SetLen(int(n) * 2)
			}
			return nil
		}}}
	}
	for _, method := range []Method{Centralized, Multiport} {
		t.Run(method.String(), func(t *testing.T) {
			tc := startClusterOps(t, 2, true, ops)
			tc.runClient(t, 2, method, func(c *rts.Comm, b *Binding) error {
				for k, mode := range []int32{1, 0, 2, 0, 3, 0, 1, 2, 3, 0} {
					n := 1000 + k%2
					arr, err := dseq.New(c, dseq.Float64, n, nil)
					if err != nil {
						return err
					}
					arr.FillFunc(indexPlus(0))
					e := ScalarEncoder()
					e.WriteLong(mode)
					e.WriteLong(int32(n))
					if _, err := b.Invoke("mangle", e.Bytes(), []DistArg{InSeq(arr)}); err != nil {
						return fmt.Errorf("call %d (mode %d): %w", k, mode, err)
					}
				}
				return nil
			})
		})
	}
}

// TestRecycledArgsAfterFailure: neither a receive leg that dies part-way — the
// client's connections cut in the middle of the argument — nor a handler that
// writes NaN over its argument, shortens it and panics leaves anything behind:
// the next call's handler sees exactly the client's data.
func TestRecycledArgsAfterFailure(t *testing.T) {
	const n = 4 * DefaultStreamChunkElems // framed centralized; two chunks a thread multi-port
	desc := OpDesc{Name: "check", Args: []ArgDesc{{Name: "arr", Dir: In, Elem: "double"}}}
	ops := func() []Operation {
		return []Operation{{Desc: desc, NewArgs: SeqArgsFloat64(desc.Args), Handler: func(call *ServerCall) error {
			scribble, err := call.In.ReadBool()
			if err != nil {
				return err
			}
			arr := ArgSeq[float64](call, 0)
			if err := wantElems(arr, indexPlus(0)); err != nil {
				return err
			}
			if scribble {
				arr.FillFunc(func(int) float64 { return math.NaN() })
				if err := arr.SetLen(n / 3); err != nil {
					return err
				}
				panic("scribbled")
			}
			return nil
		}}}
	}
	call := func(c *rts.Comm, b *Binding, off float64, scribble bool) error {
		arr, err := dseq.New(c, dseq.Float64, n, nil)
		if err != nil {
			return err
		}
		arr.FillFunc(indexPlus(off))
		e := ScalarEncoder()
		e.WriteBool(scribble)
		_, err = b.Invoke("check", e.Bytes(), []DistArg{InSeq(arr)})
		return err
	}
	for _, method := range []Method{Centralized, Multiport} {
		t.Run(method.String(), func(t *testing.T) {
			tc := startClusterOps(t, 2, true, ops, func(o *ExportOptions) { o.DataTimeout = 2 * time.Second })
			tc.runClient(t, 2, method, func(c *rts.Comm, b *Binding) error {
				if err := call(c, b, 0, true); err == nil || !strings.Contains(err.Error(), "scribbled") {
					return fmt.Errorf("the panicking call: %v", err)
				}
				return call(c, b, 0, false)
			})
			plan := transport.NewFaultPlan(5)
			plan.CutAfterWriteBytes = 100_000
			rig := &armedWrap{plan: plan}
			tc.runClientOpts(t, 2, BindOptions{Method: method, Timeout: chaosTimeout, Transport: rig.Options()}, func(c *rts.Comm, b *Binding) error {
				rig.Arm()
				if err := call(c, b, 7, false); err == nil {
					return errors.New("a call cut part-way succeeded")
				}
				return nil
			})
			tc.runClient(t, 2, method, func(c *rts.Comm, b *Binding) error { return call(c, b, 0, false) })
		})
	}
}

// TestRecycledArgsReplyLegRace: a handler that overwrites all of its recycled
// storage races nothing its operation's previous reply leg left running. The
// race detector watches every placement of the reply leg — in the message,
// framed, framed and compressed, direct — while each call rewrites what the
// one before it sent.
func TestRecycledArgsReplyLegRace(t *testing.T) {
	twice := OpDesc{Name: "twice", Args: []ArgDesc{{Name: "arr", Dir: InOut, Elem: "double"}}}
	produce := OpDesc{Name: "produce", Args: []ArgDesc{{Name: "arr", Dir: Out, Elem: "double"}}}
	ops := func() []Operation {
		return []Operation{
			{Desc: twice, NewArgs: SeqArgsFloat64(twice.Args), Handler: func(call *ServerCall) error {
				local := ArgSeq[float64](call, 0).LocalData()
				for i := range local {
					local[i] = 2*local[i] + 1
				}
				return nil
			}},
			{Desc: produce, NewArgs: SeqArgsFloat64(produce.Args), Handler: func(call *ServerCall) error {
				n, err := call.In.ReadLong()
				if err != nil {
					return err
				}
				arr := ArgSeq[float64](call, 0)
				if err := arr.ResizeAlloc(int(n)); err != nil {
					return err
				}
				arr.FillFunc(indexPlus(float64(n)))
				return nil
			}},
		}
	}
	const framed = 5 * DefaultStreamChunkElems / 2
	for _, row := range []struct {
		name     string
		method   Method
		n        int
		compress bool
	}{
		{"in-message", Centralized, 1000, false},
		{"framed", Centralized, framed, false},
		{"framed-compressed", Centralized, framed, true},
		{"multi-port", Multiport, framed, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			tc := startClusterOps(t, 2, true, ops, func(o *ExportOptions) {
				if row.compress {
					o.Compression, o.CompressionPolicy = zcodec.Supported, zcodec.PolicyAlways
				}
			})
			tc.runClient(t, 2, row.method, func(c *rts.Comm, b *Binding) error {
				arr, err := dseq.New(c, dseq.Float64, row.n, nil)
				if err != nil {
					return err
				}
				out, err := dseq.New(c, dseq.Float64, 0, nil)
				if err != nil {
					return err
				}
				for k := 0; k < 4; k++ {
					arr.FillFunc(indexPlus(float64(k)))
					if _, err := b.Invoke("twice", ScalarEncoder().Bytes(), []DistArg{InOutSeq(arr)}); err != nil {
						return err
					}
					m := row.n - k // a shorter result each call, on the same storage
					e := ScalarEncoder()
					e.WriteLong(int32(m))
					if _, err := b.Invoke("produce", e.Bytes(), []DistArg{OutSeq(out)}); err != nil {
						return err
					}
					doubled := func(g int) float64 { return 2*(float64(g)+float64(k)) + 1 }
					if err := errors.Join(wantElems(arr, doubled), wantElems(out, indexPlus(float64(m)))); err != nil {
						return fmt.Errorf("call %d: %w", k, err)
					}
				}
				return nil
			})
		})
	}
}

// TestRecycledArgsRetention: what a thread keeps of an operation's argument is
// bounded by the largest argument the operation has moved — after a 2^19-element
// call and then a 128-element one, the storage the small call runs on is no
// larger than the big call's share — and once Serve has returned it keeps
// none.
func TestRecycledArgsRetention(t *testing.T) {
	const big, small, threads = 1 << 19, 128, 2
	hold := OpDesc{Name: "hold", Args: []ArgDesc{{Name: "arr", Dir: In, Elem: "double"}}}
	for _, method := range []Method{Centralized, Multiport} {
		t.Run(method.String(), func(t *testing.T) {
			var held [threads]atomic.Int64 // capacity of the storage the last call ran on
			var mu sync.Mutex
			var storage []weak.Pointer[float64] // under mu
			ops := func() []Operation {
				return []Operation{
					{Desc: hold, NewArgs: SeqArgsFloat64(hold.Args), Handler: func(call *ServerCall) error {
						local := ArgSeq[float64](call, 0).LocalData()
						held[call.Comm.Rank()].Store(int64(cap(local)))
						mu.Lock()
						storage = append(storage, weak.Make(&local[0]))
						mu.Unlock()
						return nil
					}},
					{Desc: OpDesc{Name: "stop"}, NewArgs: func(*rts.Comm) ([]dseq.Transferable, error) { return nil, nil },
						Handler: func(*ServerCall) error { return ErrStopServing }},
				}
			}
			tc := startClusterOps(t, threads, true, ops)
			tc.runClient(t, 2, method, func(c *rts.Comm, b *Binding) error {
				for _, n := range []int{big, small} {
					arr, err := dseq.New(c, dseq.Float64, n, nil)
					if err != nil {
						return err
					}
					if _, err := b.Invoke("hold", ScalarEncoder().Bytes(), []DistArg{InSeq(arr)}); err != nil {
						return err
					}
				}
				_, err := b.Invoke("stop", ScalarEncoder().Bytes(), nil)
				return err
			})
			for r := range held {
				if got := held[r].Load(); got > big/threads {
					t.Errorf("thread %d ran a %d-element call on %d elements of storage, more than the %d-element call's share of %d",
						r, small, got, big, big/threads)
				}
			}
			testutil.Eventually(t, testTimeout, "Serve never returned", func() bool {
				tc.objMu.Lock()
				defer tc.objMu.Unlock()
				return !slices.Contains(tc.served, -1)
			})
			testutil.Eventually(t, 5*time.Second, "argument storage outlived Serve", func() bool {
				runtime.GC()
				mu.Lock()
				defer mu.Unlock()
				for _, p := range storage {
					if p.Value() != nil {
						return false
					}
				}
				return true
			})
		})
	}
}

// Recycled buckets: a server thread's data bucket outlives its token — a
// dropped one is emptied and reissued to the next token the thread sees
// (Object.bucket) — so a handleData that looked a bucket up before it moved on
// may deliver, late, what a call that is over brought. These tests hold that
// such a frame reaches neither the data nor the connections of the call the
// bucket serves now, and that what a thread keeps is let go with Serve.

// lateFrame is what a call that is over may still bring a bucket: with count 0
// an attachment, else a chunk of count elements of garbage at the start of the
// leg, in a buffer rented from the frame pool as the transport's are.
func lateFrame(token uint32, src, count int) *wire.Data {
	d := &wire.Data{RequestID: token, SrcRank: uint32(src), Count: uint64(count), Flags: chunkFlags(false)}
	if count > 0 {
		payload := dseq.MarshalChunk(dseq.Float64, slices.Repeat([]float64{-1e9}, count))
		d.Payload = append(bufpool.Frames.Rent(len(payload)), payload...)
		d.Lend(d.Payload)
	}
	return d
}

// TestRecycledBucketIgnoresStaleToken: after a call from one client, each
// receiving server thread holds the call's bucket as a spare. A late chunk and
// a late attachment of that call, from its client's connection, reach each
// spare twice: while it is idle, beside the poison a lost connection leaves,
// and again once the next call's token has opened it, ahead of that call's own
// frames. The next calls, from a second client, get exactly their own data in
// and their own results back — a multi-port one over its own connections — and
// every frame goes back to the pool.
func TestRecycledBucketIgnoresStaleToken(t *testing.T) {
	const elems = 8 * shapeChunk
	for _, method := range []Method{Centralized, Multiport} {
		t.Run(method.String(), func(t *testing.T) {
			defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
			tc := startClusterOps(t, 2, true, func() []Operation { return shapeOps(func(*ServerCall) {}) })
			tc.objMu.Lock()
			receivers := slices.Clone(tc.objects)
			tc.objMu.Unlock()
			if method == Centralized {
				receivers = receivers[:1] // thread 0 alone takes a centralized leg's frames
			}

			w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
			defer w.Close()
			run := func(fn func(c *rts.Comm) error) {
				t.Helper()
				if err := w.Run(fn); err != nil {
					t.Fatal(err)
				}
			}
			// first is the client of the call that is over, second of the
			// calls after it.
			var first, second [2]*Binding
			var arrs [2]*dseq.Seq[float64]
			defer func() {
				for _, b := range append(first[:], second[:]...) {
					if b != nil {
						b.Close()
					}
				}
			}()
			opts := BindOptions{Method: method, Timeout: 5 * time.Second, StreamChunkElems: shapeChunk}
			run(func(c *rts.Comm) (err error) {
				r := c.Rank()
				if first[r], err = SPMDBind(c, "example", tc.ns.Addr(), opts); err != nil {
					return err
				}
				if second[r], err = SPMDBind(c, "example", tc.ns.Addr(), opts); err != nil {
					return err
				}
				arrs[r], err = dseq.New(c, dseq.Float64, elems, nil)
				return err
			})
			swap := func(b *[2]*Binding) {
				t.Helper()
				run(func(c *rts.Comm) error {
					arr := arrs[c.Rank()]
					arr.FillFunc(func(g int) float64 { return float64(g + 1) })
					if _, err := b[c.Rank()].Invoke("swap", ScalarEncoder().Bytes(), []DistArg{InOutSeq(arr)}); err != nil {
						return err
					}
					return wantElems(arr, func(g int) float64 { return -float64(g + 1) })
				})
			}
			// spares waits for the call just made to be over on every
			// receiving thread and returns the bucket each kept.
			spares := func() []*dataBucket {
				t.Helper()
				bs := make([]*dataBucket, len(receivers))
				for k, o := range receivers {
					testutil.Eventually(t, testTimeout, "a call that is over left no spare bucket", func() bool {
						o.bucketMu.Lock()
						defer o.bucketMu.Unlock()
						if len(o.buckets) != 0 || len(o.spare) != 1 {
							return false
						}
						bs[k] = o.spare[0]
						return true
					})
				}
				return bs
			}

			swap(&first)
			type late struct {
				token uint32
				src   int
				conn  *transport.Conn
			}
			var lates []late
			for _, b := range spares() {
				b.connMu.Lock()
				l := late{token: b.token}
				for l.src, l.conn = range b.conns {
					break
				}
				b.connMu.Unlock()
				if l.conn == nil {
					t.Fatal("a receiving thread recorded no client connection")
				}
				lates = append(lates, l)
			}
			deliverLate := func(bs []*dataBucket) {
				for k, b := range bs {
					b.deliver(lateFrame(lates[k].token, lates[k].src, shapeChunk), lates[k].conn)
					b.deliver(lateFrame(lates[k].token, lates[k].src, 0), lates[k].conn)
				}
			}

			idle := spares()
			deliverLate(idle)
			for _, b := range idle {
				b.ch <- nil
			}
			swap(&second)

			// The next token the process hands out is the second client's
			// next call's; opening its bucket here is what its first frame
			// would do.
			token := tokenCounter.Load() + 1
			for k, o := range receivers {
				if b := o.bucket(token, false); b != idle[k] {
					t.Fatalf("receiving thread %d opened a new bucket, not its spare", k)
				}
			}
			deliverLate(idle)
			swap(&second)
			for k, b := range spares() {
				if b.token != token {
					t.Fatalf("receiving thread %d's bucket served token %#x, not the predicted %#x", k, b.token, token)
				}
			}
		})
	}
}

// TestRecycledBucketRetention: after calls made one at a time, a server thread
// keeps one spare bucket where it receives a leg's frames and none where it
// does not — thread 1 of a centralized call — and once Serve has returned it
// keeps none: the buckets, their channels and timers go to the collector.
func TestRecycledBucketRetention(t *testing.T) {
	for _, method := range []Method{Centralized, Multiport} {
		t.Run(method.String(), func(t *testing.T) {
			ops := func() []Operation {
				return append(shapeOps(func(*ServerCall) {}), Operation{Desc: OpDesc{Name: "stop"},
					NewArgs: func(*rts.Comm) ([]dseq.Transferable, error) { return nil, nil },
					Handler: func(*ServerCall) error { return ErrStopServing }})
			}
			tc := startClusterOps(t, 2, true, ops)
			tc.objMu.Lock()
			objs := slices.Clone(tc.objects)
			tc.objMu.Unlock()
			opts := BindOptions{Method: method, Timeout: testTimeout, StreamChunkElems: shapeChunk}
			tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
				for i := 0; i < 3; i++ {
					if err := put(c, b, method, 8*shapeChunk); err != nil {
						return err
					}
				}
				return nil
			})
			want := []int{1, 1}
			if method == Centralized {
				want[1] = 0
			}
			var kept []weak.Pointer[dataBucket]
			for r, o := range objs {
				testutil.Eventually(t, testTimeout, fmt.Sprintf("thread %d never settled at %d spare buckets", r, want[r]), func() bool {
					o.bucketMu.Lock()
					defer o.bucketMu.Unlock()
					return len(o.buckets) == 0 && len(o.spare) == want[r]
				})
				o.bucketMu.Lock()
				for _, b := range o.spare {
					kept = append(kept, weak.Make(b))
				}
				o.bucketMu.Unlock()
			}

			tc.runClient(t, 2, Centralized, func(c *rts.Comm, b *Binding) error {
				_, err := b.Invoke("stop", ScalarEncoder().Bytes(), nil)
				return err
			})
			testutil.Eventually(t, testTimeout, "Serve never returned", func() bool {
				tc.objMu.Lock()
				defer tc.objMu.Unlock()
				return !slices.Contains(tc.served, -1)
			})
			for r, o := range objs {
				o.bucketMu.Lock()
				if len(o.buckets) != 0 || len(o.spare) != 0 {
					t.Errorf("thread %d holds %d buckets and %d spares after Serve returned", r, len(o.buckets), len(o.spare))
				}
				o.bucketMu.Unlock()
			}
			testutil.Eventually(t, 5*time.Second, "a spare bucket outlived Serve", func() bool {
				runtime.GC()
				for _, p := range kept {
					if p.Value() != nil {
						return false
					}
				}
				return true
			})
		})
	}
}
