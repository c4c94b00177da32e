package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
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
	"repro/internal/obs"
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
			opts := BindOptions{Method: method, Timeout: 5 * time.Second, streamChunkElems: shapeChunk}
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
			// Thread 1 of a multi-port call drops its bucket after the reply
			// (TestRecycledBucketRetention): wait until each receiving thread
			// is back to its one spare before the next token opens it.
			spares()

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
// keeps a spare bucket where it receives a leg's frames and none where it does
// not — thread 1 of a centralized call — and once Serve has returned it keeps
// none: the buckets, their channels and timers go to the collector. Thread 0
// drops its bucket before it replies, so it keeps exactly one. Thread 1 of a
// multi-port call is not ordered against that reply: the next call's first
// frame may reach it before its previous call has dropped its bucket, which
// opens a second one. The bound is then two spares, as many buckets as it
// ever has open at once.
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
			opts := BindOptions{Method: method, Timeout: testTimeout, streamChunkElems: shapeChunk}
			tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
				for i := 0; i < 3; i++ {
					if err := put(c, b, method, 8*shapeChunk); err != nil {
						return err
					}
				}
				return nil
			})
			lo, hi := []int{1, 1}, []int{1, 2}
			if method == Centralized {
				lo[1], hi[1] = 0, 0
			}
			var kept []weak.Pointer[dataBucket]
			for r, o := range objs {
				testutil.Eventually(t, testTimeout, fmt.Sprintf("thread %d never settled at %d to %d spare buckets", r, lo[r], hi[r]), func() bool {
					o.bucketMu.Lock()
					defer o.bucketMu.Unlock()
					return len(o.buckets) == 0 && lo[r] <= len(o.spare) && len(o.spare) <= hi[r]
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

// Recycled headers: a server thread decodes every call's invocation header into
// the one its last call left — thread 0 into the pooled pendingCall, the others
// into their Object — and a client lane fills its request header and decodes
// its reply header in place. These tests hold that nothing of one call's header
// reaches the next, however the calls differ, and that what a header keeps of
// a layout is bounded by dist.KeptIntervals.

// stopOp ends Serve on every thread in order.
var stopOp = Operation{Desc: OpDesc{Name: "stop"}, NewArgs: func(*rts.Comm) ([]dseq.Transferable, error) { return nil, nil },
	Handler: func(*ServerCall) error { return ErrStopServing }}

// TestRecycledHeaders: one client alternates, on both methods, an operation of
// one in argument with one of an inout and an out argument, and client layouts
// of one interval a thread (Block) with layouts of one an element (Cyclic{1}),
// two calls in flight — one on each of its two bindings. Every call's handler
// sees exactly its client's data on every thread, every reply announces the
// lengths the handler left and the results arrive whole, and the threads of
// either side end at the same collective.
func TestRecycledHeaders(t *testing.T) {
	const n, m, threads = 37, 23, 2
	in := OpDesc{Name: "in", Args: []ArgDesc{{Name: "arr", Dir: In, Elem: "double"}}}
	mix := OpDesc{Name: "mix", Args: []ArgDesc{{Name: "arr", Dir: InOut, Elem: "double"}, {Name: "res", Dir: Out, Elem: "double"}}}
	// Call k's argument holds g + k at global index g; its result 2g + k.
	result := func(k float64) func(g int) float64 { return func(g int) float64 { return 2*float64(g) + k } }
	ops := func() []Operation {
		return []Operation{
			{Desc: in, NewArgs: SeqArgsFloat64(in.Args), Handler: func(call *ServerCall) error {
				k, err := call.In.ReadDouble()
				if err != nil {
					return err
				}
				arr := ArgSeq[float64](call, 0)
				call.Out.WriteLong(int32(arr.Len()))
				return wantElems(arr, indexPlus(k))
			}},
			{Desc: mix, NewArgs: SeqArgsFloat64(mix.Args), Handler: func(call *ServerCall) error {
				k, err := call.In.ReadDouble()
				if err != nil {
					return err
				}
				arr, res := ArgSeq[float64](call, 0), ArgSeq[float64](call, 1)
				if err := wantElems(arr, indexPlus(k)); err != nil {
					return err
				}
				for i, v := range arr.LocalData() {
					arr.LocalData()[i] = -v
				}
				if err := res.ResizeAlloc(m); err != nil {
					return err
				}
				res.FillFunc(result(k))
				call.Out.WriteLong(int32(arr.Len()))
				call.Out.WriteLong(int32(res.Len()))
				return nil
			}},
			stopOp,
		}
	}
	tc := startClusterOps(t, threads, true, ops)
	type pending struct {
		f        *Future
		k        float64
		arr, res *dseq.Seq[float64] // res is nil for in
	}
	// settle checks a call's reply lengths and what it left in its sequences.
	settle := func(p *pending) error {
		if p == nil {
			return nil
		}
		reply, err := p.f.Wait()
		if err != nil {
			return fmt.Errorf("call %v: %w", p.k, err)
		}
		d, err := ScalarDecoder(reply)
		if err != nil {
			return err
		}
		want := []int{n}
		if p.res != nil {
			want = append(want, m)
		}
		for i, w := range want {
			if got, err := d.ReadLong(); err != nil || int(got) != w {
				return fmt.Errorf("call %v: reply length %d is %d (%v), want %d", p.k, i, got, err, w)
			}
		}
		if p.res == nil {
			return wantElems(p.arr, indexPlus(p.k))
		}
		if p.res.Len() != m {
			return fmt.Errorf("call %v: the result holds %d elements, want %d", p.k, p.res.Len(), m)
		}
		return errors.Join(wantElems(p.arr, func(g int) float64 { return -float64(g) - p.k }), wantElems(p.res, result(p.k)))
	}
	specs := []dist.Spec{dist.Block{}, dist.Cyclic{BlockSize: 1}, dist.Block{}}
	var engines [threads][2]int // each client thread's bindings' engine Collectives() at the end
	opts := BindOptions{Timeout: testTimeout}
	tc.runClientOpts(t, threads, opts, func(c *rts.Comm, first *Binding) error {
		second, err := SPMDBind(c, "example", tc.ns.Addr(), opts)
		if err != nil {
			return err
		}
		defer second.Close()
		bindings := [2]*Binding{first, second}
		var window [2]*pending // call k rides binding k mod 2
		k := 0
		for _, method := range []Method{Centralized, Multiport} {
			for i := 0; i < 9; i++ {
				if err := settle(window[k%2]); err != nil {
					return err
				}
				p := &pending{k: float64(k)}
				spec := specs[i/3]
				var err error
				if p.arr, err = dseq.New(c, dseq.Float64, n, spec); err != nil {
					return err
				}
				p.arr.FillFunc(indexPlus(p.k))
				e := ScalarEncoder()
				e.WriteDouble(p.k)
				if i%3 == 1 {
					if p.res, err = dseq.New(c, dseq.Float64, 0, spec); err != nil {
						return err
					}
					p.f = bindings[k%2].InvokeNBMethod(method, "mix", e.Bytes(), []DistArg{InOutSeq(p.arr), OutSeq(p.res)})
				} else {
					p.f = bindings[k%2].InvokeNBMethod(method, "in", e.Bytes(), []DistArg{InSeq(p.arr)})
				}
				window[k%2] = p
				k++
			}
		}
		if err := errors.Join(settle(window[0]), settle(window[1])); err != nil {
			return err
		}
		if _, err := first.Invoke("stop", ScalarEncoder().Bytes(), nil); err != nil {
			return err
		}
		engines[c.Rank()] = [2]int{first.Comm().Collectives(), second.Comm().Collectives()}
		return nil
	})
	if engines[0] != engines[1] {
		t.Errorf("the client threads' bindings end at collectives %v and %v", engines[0], engines[1])
	}
	testutil.Eventually(t, testTimeout, "Serve never returned", func() bool {
		tc.objMu.Lock()
		defer tc.objMu.Unlock()
		return !slices.Contains(tc.served, -1)
	})
	tc.objMu.Lock()
	defer tc.objMu.Unlock()
	if tc.served[0] != tc.served[1] {
		t.Errorf("the server threads end at collectives %v", tc.served)
	}
}

// heldIntervals is the most intervals any one array of a header's layouts
// holds, over all the argument entries it keeps.
func heldIntervals(h *invocationHeader) int {
	most := 0
	for _, a := range h.Args[:cap(h.Args)] {
		most = max(most, layoutHeld(a.Layout))
	}
	return most
}

// layoutHeld is the most intervals one array of l holds: the per-rank lists,
// what they view, and the storage a decode or a Block.LayoutInto keeps for the
// next one.
func layoutHeld(l dist.Layout) int {
	views := 0
	for _, v := range l.Intervals {
		views += cap(v)
	}
	return max(cap(l.Intervals), views, reflect.ValueOf(l).FieldByName("flat").Cap())
}

// legHeld is the most moves, intervals or ledger entries one array a direct
// leg's storage keeps holds: a plan of every argument entry it keeps, its Block
// layout, its ledger.
func legHeld(l *directLeg) int {
	most := max(cap(l.flows), layoutHeld(l.block))
	for _, plan := range l.plans[:cap(l.plans)] {
		most = max(most, cap(plan))
	}
	return most
}

// TestRecycledHeaderRetention: a header keeps no more of a layout than
// dist.KeptIntervals, and a direct leg's storage no more of a plan. After a
// call whose client layout is Cyclic{1} over 10^6 elements (20 000 under the
// race detector) — an interval an element in its header, a move an element in
// its plans, multi-port an in and an inout call, so that every leg plans it — a
// Block call and a stop, neither server thread's header nor its legs, nor any
// client lane's header or legs, holds more. Thread 0's headers ride the pooled
// pending calls: on one P, the test's gets find what dispatch put back, unless
// a collection dropped it first.
func TestRecycledHeaderRetention(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := 1000000
	if raceEnabled {
		n = 20000
	}
	for _, method := range []Method{Centralized, Multiport} {
		t.Run(method.String(), func(t *testing.T) {
			runtime.GC()
			runtime.GC() // the pool of pending calls holds none of another test's
			tc := startClusterOps(t, 2, true, func() []Operation { return append(shapeOps(func(*ServerCall) {}), stopOp) })
			tc.runClientOpts(t, 2, BindOptions{Method: method, Timeout: testTimeout}, func(c *rts.Comm, b *Binding) error {
				for _, spec := range []dist.Spec{dist.Cyclic{BlockSize: 1}, dist.Block{}} {
					arr, err := dseq.New(c, dseq.Float64, n, spec)
					if err != nil {
						return err
					}
					if _, err := b.Invoke("put", ScalarEncoder().Bytes(), []DistArg{InSeq(arr)}); err != nil {
						return err
					}
					if method != Multiport {
						continue
					}
					if _, err := b.Invoke("swap", ScalarEncoder().Bytes(), []DistArg{InOutSeq(arr)}); err != nil {
						return err
					}
				}
				if _, err := b.Invoke("stop", ScalarEncoder().Bytes(), nil); err != nil {
					return err
				}
				if got := heldIntervals(&b.lane.request); got > dist.KeptIntervals {
					return fmt.Errorf("client thread %d: the lane's header holds %d intervals, more than %d", c.Rank(), got, dist.KeptIntervals)
				}
				if got := max(legHeld(&b.lane.fwd), legHeld(&b.lane.back)); got > dist.KeptIntervals {
					return fmt.Errorf("client thread %d: the lane's direct legs hold %d moves or intervals, more than %d", c.Rank(), got, dist.KeptIntervals)
				}
				return nil
			})
			testutil.Eventually(t, testTimeout, "Serve never returned", func() bool {
				tc.objMu.Lock()
				defer tc.objMu.Unlock()
				return !slices.Contains(tc.served, -1)
			})
			for r, o := range tc.objects {
				if got := max(legHeld(&o.recvLeg), legHeld(&o.sendLeg)); got > dist.KeptIntervals {
					t.Errorf("server thread %d: its direct legs hold %d moves or intervals, more than %d", r, got, dist.KeptIntervals)
				}
			}
			headers := []*invocationHeader{&tc.objects[1].directive}
			var calls []*pendingCall
			for call := pendingCalls.Get().(*pendingCall); call.header.Op != ""; call = pendingCalls.Get().(*pendingCall) {
				calls, headers = append(calls, call), append(headers, &call.header)
			}
			for _, call := range calls {
				defer pendingCalls.Put(call)
			}
			t.Logf("%d of thread 0's headers found in the pool", len(calls))
			for i, h := range headers {
				if got := heldIntervals(h); got > dist.KeptIntervals {
					t.Errorf("server header %d (0: thread 1's; then thread 0's pooled ones) holds %d intervals, more than %d", i, got, dist.KeptIntervals)
				}
			}
		})
	}
}

// Kept scratch: a client lane renders its requests in the encoder it keeps and
// its token broadcasts into a slab it never rewrites; server thread 0 renders a
// call's directive into its Object's buffer and its reply into the pooled
// pendingCall's encoder, which dispatch copies into the adapter's; the adapter
// opens every request with a pooled decoder, which the pendingCall copies.
// TestKeptScratchWindows holds each to its window: every call carries contents
// of its own, checked by the handler on every server thread and in its reply.

// keptElems is the length of the kept-scratch calls' sequences: every leg is
// placed in the message.
const keptElems = 37

// keptOps is the operation table of TestKeptScratchWindows. Call k carries k in
// its scalars, its in and inout arguments hold g + k at global index g, and its
// reply opens with k: "in" takes one argument; "mix" an inout, which it
// negates, and an out it fills with 2g + k; "echo" none, so a client's thread 0
// waits on no other thread. onNewArgs, when set, runs on each thread before its
// first "in" builds its argument.
func keptOps(onNewArgs func(*rts.Comm)) []Operation {
	in := OpDesc{Name: "in", Args: []ArgDesc{{Name: "arr", Dir: In, Elem: "double"}}}
	mix := OpDesc{Name: "mix", Args: []ArgDesc{{Name: "arr", Dir: InOut, Elem: "double"}, {Name: "res", Dir: Out, Elem: "double"}}}
	inArgs := SeqArgsFloat64(in.Args)
	handler := func(check func(call *ServerCall, k float64) error) func(*ServerCall) error {
		return func(call *ServerCall) error {
			k, err := call.In.ReadDouble()
			if err != nil {
				return err
			}
			call.Out.WriteDouble(k)
			return check(call, k)
		}
	}
	return []Operation{
		{Desc: in, NewArgs: func(c *rts.Comm) ([]dseq.Transferable, error) {
			if onNewArgs != nil {
				onNewArgs(c)
			}
			return inArgs(c)
		}, Handler: handler(func(call *ServerCall, k float64) error {
			return wantElems(ArgSeq[float64](call, 0), indexPlus(k))
		})},
		{Desc: mix, NewArgs: SeqArgsFloat64(mix.Args), Handler: handler(func(call *ServerCall, k float64) error {
			arr, res := ArgSeq[float64](call, 0), ArgSeq[float64](call, 1)
			if err := wantElems(arr, indexPlus(k)); err != nil {
				return err
			}
			for i, v := range arr.LocalData() {
				arr.LocalData()[i] = -v
			}
			if err := res.ResizeAlloc(keptElems); err != nil {
				return err
			}
			res.FillFunc(func(g int) float64 { return 2*float64(g) + k })
			return nil
		})},
		{Desc: OpDesc{Name: "echo"}, NewArgs: func(*rts.Comm) ([]dseq.Transferable, error) { return nil, nil },
			Handler: handler(func(*ServerCall, float64) error { return nil })},
	}
}

// keptCall is one outstanding call of TestKeptScratchWindows.
type keptCall struct {
	f        *Future
	k        float64
	arr, res *dseq.Seq[float64] // nil where the operation takes none
}

// startKept issues call k — "in", "mix" or "echo", by k mod 3 — without
// blocking.
func startKept(c *rts.Comm, b *Binding, k int) (*keptCall, error) {
	p := &keptCall{k: float64(k)}
	e := ScalarEncoder()
	e.WriteDouble(p.k)
	op := [...]string{"in", "mix", "echo"}[k%3]
	var args []DistArg
	var err error
	if op != "echo" {
		if p.arr, err = dseq.New(c, dseq.Float64, keptElems, nil); err != nil {
			return nil, err
		}
		p.arr.FillFunc(indexPlus(p.k))
		args = []DistArg{InSeq(p.arr)}
	}
	if op == "mix" {
		if p.res, err = dseq.New(c, dseq.Float64, 0, nil); err != nil {
			return nil, err
		}
		args = []DistArg{InOutSeq(p.arr), OutSeq(p.res)}
	}
	p.f = b.InvokeNB(op, e.Bytes(), args)
	return p, nil
}

// settle waits for the call and checks its reply and what it left in its
// sequences.
func (p *keptCall) settle() error {
	reply, err := p.f.Wait()
	if err != nil {
		return fmt.Errorf("call %v: %w", p.k, err)
	}
	d, err := ScalarDecoder(reply)
	if err != nil {
		return err
	}
	if got, err := d.ReadDouble(); err != nil || got != p.k {
		return fmt.Errorf("call %v: the reply opens with %v (%v)", p.k, got, err)
	}
	if p.res == nil {
		return nil
	}
	if p.res.Len() != keptElems {
		return fmt.Errorf("call %v: the result holds %d elements, want %d", p.k, p.res.Len(), keptElems)
	}
	return errors.Join(wantElems(p.arr, func(g int) float64 { return -float64(g) - p.k }),
		wantElems(p.res, func(g int) float64 { return 2*float64(g) + p.k }))
}

// keptCalls makes calls from, …, from+n-1 on b, one after the other; thread 1
// issues each lag after the thread before it could.
func keptCalls(c *rts.Comm, b *Binding, from, n int, lag time.Duration) error {
	for k := from; k < from+n; k++ {
		if c.Rank() == 1 {
			time.Sleep(lag)
		}
		p, err := startKept(c, b, k)
		if err != nil {
			return err
		}
		if err := p.settle(); err != nil {
			return err
		}
	}
	return nil
}

// directKeptOps is the operation table of TestKeptScratchWindows/direct:
// "block" and "spread" each take an in, an inout and an out argument, at the
// same indices, laid out Block on the server for the one and Cyclic{3},
// Proportions{1,2} and Cyclic{1} for the other. Call k carries k and a length n
// in its scalars, its in and inout arguments hold g + k at global index g, the
// handler negates the inout and fills the out with n elements of 2g + k, and
// its reply opens with k.
func directKeptOps() []Operation {
	spread := []dist.Spec{dist.Cyclic{BlockSize: 3}, dist.Proportions{P: []int{1, 2}}, dist.Cyclic{BlockSize: 1}}
	var ops []Operation
	for _, name := range []string{"block", "spread"} {
		desc := OpDesc{Name: name, Args: []ArgDesc{{Name: "in", Dir: In, Elem: "double"}, {Name: "io", Dir: InOut, Elem: "double"}, {Name: "out", Dir: Out, Elem: "double"}}}
		for i := range desc.Args {
			if name == "spread" {
				desc.Args[i].Spec = spread[i]
			}
		}
		ops = append(ops, Operation{Desc: desc, NewArgs: SeqArgsFloat64(desc.Args), Handler: func(call *ServerCall) error {
			k, err := call.In.ReadDouble()
			if err != nil {
				return err
			}
			n, err := call.In.ReadLong()
			if err != nil {
				return err
			}
			call.Out.WriteDouble(k)
			in, io, out := ArgSeq[float64](call, 0), ArgSeq[float64](call, 1), ArgSeq[float64](call, 2)
			if err := errors.Join(wantElems(in, indexPlus(k)), wantElems(io, indexPlus(k))); err != nil {
				return fmt.Errorf("%s call %v, server: %w", name, k, err)
			}
			for i, v := range io.LocalData() {
				io.LocalData()[i] = -v
			}
			if err := out.ResizeAlloc(int(n)); err != nil {
				return err
			}
			out.FillFunc(func(g int) float64 { return 2*float64(g) + k })
			return nil
		}})
	}
	return ops
}

// TestKeptScratchWindows: (pipelined) a binding's thread 0 runs a call ahead
// of its thread 1, which issues every call late, so thread 0 finishes each
// "echo" and picks the next call's token before thread 1 has taken the echo's
// — yet both threads run every call under the same token; (two clients) two
// SPMD clients call one object at once; (stopped) an object is stopped while
// its loop holds a dequeued call, and goes on to read that call's steps only
// once another object's adapter has served requests with the pooled decoders —
// the call's handler must still see its own data on every thread; (direct) one
// multi-port binding alternates calls whose arguments, at the same indices, are
// laid out Block on both sides and otherwise, over lengths that change every
// other call, so every leg the lane and the object's threads plan into storage
// they keep plans one call's arguments after another's of the same length but
// another layout, or of the same layout and another length — every thread of
// both sides must see its call's contents.
func TestKeptScratchWindows(t *testing.T) {
	ops := func() []Operation { return keptOps(nil) }
	t.Run("pipelined", func(t *testing.T) {
		const calls = 60
		tc := startClusterOps(t, 2, false, ops)
		rec := obs.NewRecorder(4096)
		tc.runClientOpts(t, 2, BindOptions{Timeout: testTimeout, Trace: rec}, func(c *rts.Comm, b *Binding) error {
			return keptCalls(c, b, 0, calls, 2*time.Millisecond)
		})
		var tokens [2][]uint64 // per client thread, the token of every call it ran
		for _, sp := range rec.Spans() {
			if sp.Phase == obs.PhaseInvoke {
				tokens[sp.Rank] = append(tokens[sp.Rank], sp.Trace)
			}
		}
		for _, ts := range tokens {
			slices.Sort(ts)
		}
		if distinct := len(slices.Compact(slices.Clone(tokens[0]))); distinct != calls || !slices.Equal(tokens[0], tokens[1]) {
			t.Errorf("thread 0 ran %d calls under %d tokens, thread 1 ran %d calls: under different ones", len(tokens[0]), distinct, len(tokens[1]))
		}
	})
	t.Run("two clients", func(t *testing.T) {
		tc := startClusterOps(t, 2, false, ops)
		errs := make(chan error, 2)
		for _, from := range []int{0, 1000} {
			go func() {
				errs <- tc.clientRun(2, BindOptions{Timeout: testTimeout}, func(c *rts.Comm, b *Binding) error {
					return keptCalls(c, b, from, 60, 0)
				})
			}()
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	})
	t.Run("direct", func(t *testing.T) {
		tc := startClusterOps(t, 2, true, directKeptOps)
		tc.runClientOpts(t, 2, BindOptions{Method: Multiport, Timeout: testTimeout, streamChunkElems: 64}, func(c *rts.Comm, b *Binding) error {
			for k := 0; k < 12; k++ {
				op, n, spec := "block", []int{1000, 333}[k/2%2], dist.Spec(nil)
				if k%2 == 1 {
					op, spec = "spread", dist.Cyclic{BlockSize: 2}
				}
				in, err := dseq.New(c, dseq.Float64, n, spec)
				if err != nil {
					return err
				}
				io, err := dseq.New(c, dseq.Float64, n, spec)
				if err != nil {
					return err
				}
				out, err := dseq.New(c, dseq.Float64, 0, spec)
				if err != nil {
					return err
				}
				in.FillFunc(indexPlus(float64(k)))
				io.FillFunc(indexPlus(float64(k)))
				e := ScalarEncoder()
				e.WriteDouble(float64(k))
				e.WriteLong(int32(n + k/2))
				reply, err := b.Invoke(op, e.Bytes(), []DistArg{InSeq(in), InOutSeq(io), OutSeq(out)})
				if err != nil {
					return fmt.Errorf("%s call %d: %w", op, k, err)
				}
				d, err := ScalarDecoder(reply)
				if err != nil {
					return err
				}
				if got, err := d.ReadDouble(); err != nil || got != float64(k) {
					return fmt.Errorf("%s call %d: the reply opens with %v (%v)", op, k, got, err)
				}
				if out.Len() != n+k/2 {
					return fmt.Errorf("%s call %d: the out argument holds %d elements, want %d", op, k, out.Len(), n+k/2)
				}
				if err := errors.Join(wantElems(io, func(g int) float64 { return -float64(g + k) }),
					wantElems(out, func(g int) float64 { return float64(2*g + k) })); err != nil {
					return fmt.Errorf("%s call %d, client: %w", op, k, err)
				}
			}
			return nil
		})
	})
	t.Run("stopped", func(t *testing.T) {
		// One P: the pooled scratch the stopped object's adapter puts back is
		// the next any adapter takes.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		entered, release := make(chan struct{}), make(chan struct{})
		verdicts := make(chan error, 2)
		stopped := startClusterOps(t, 2, false, func() []Operation {
			ops := keptOps(func(c *rts.Comm) {
				if c.Rank() == 0 {
					close(entered)
					<-release
				}
			})
			check := ops[0].Handler
			ops[0].Handler = func(call *ServerCall) error {
				err := check(call)
				verdicts <- err
				return err
			}
			return ops
		})
		other := startClusterOps(t, 2, false, ops)
		called := make(chan error, 1)
		go func() {
			called <- stopped.clientRun(2, BindOptions{Timeout: testTimeout}, func(c *rts.Comm, b *Binding) error {
				p, err := startKept(c, b, 300) // an "in"
				if err == nil && p.settle() == nil {
					return errors.New("a call to a stopped object succeeded")
				}
				return nil
			})
		}()
		select {
		case <-entered:
		case <-time.After(testTimeout):
			t.Fatal("the call never reached the loop")
		}
		stopped.objMu.Lock()
		obj := stopped.objects[0]
		stopped.objMu.Unlock()
		obj.Close()
		if err := <-called; err != nil {
			t.Fatal(err)
		}
		other.runClientOpts(t, 2, BindOptions{Timeout: testTimeout}, func(c *rts.Comm, b *Binding) error {
			return keptCalls(c, b, 3000, 30, 0)
		})
		close(release)
		testutil.Eventually(t, testTimeout, "the stopped object's Serve never returned", func() bool {
			stopped.objMu.Lock()
			defer stopped.objMu.Unlock()
			return !slices.Contains(stopped.served, -1)
		})
		if len(verdicts) != 2 {
			t.Fatalf("the held call's handler ran on %d threads, want 2: its steps were lost", len(verdicts))
		}
		for range 2 {
			if err := <-verdicts; err != nil {
				t.Errorf("the held call's handler: %v", err)
			}
		}
	})
}
