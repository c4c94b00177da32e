package core

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// pairDesc is the operation the frame-ledger test moves: two inout arguments,
// so a leg expects transfers of more than one argument at once.
var pairDesc = OpDesc{Name: "pair", Args: []ArgDesc{
	{Name: "a", Dir: InOut, Elem: "double"},
	{Name: "b", Dir: InOut, Elem: "double"},
}}

// badMoves are the ways a direct leg's peer can break the plan. send delivers
// one transfer of count elements for argument arg at local offset off; the
// receiving thread expects, for each of the two arguments, want elements at
// offset 0. queued is how many transfers the script leaves behind the one the
// leg gives up on.
var badMoves = []struct {
	name   string
	queued int
	play   func(send func(arg, off, count int), want int)
}{
	{"off-plan offset", 1, func(send func(arg, off, count int), want int) {
		send(0, 5, want)
		send(1, 0, want)
	}},
	{"wrong count", 1, func(send func(arg, off, count int), want int) {
		send(0, 0, want-1)
		send(1, 0, want)
	}},
	{"timeout after a later argument arrived", 0, func(send func(arg, off, count int), want int) {
		send(1, 0, want)
	}},
}

// TestMultiportFramesReturned drives both receiving ends of the direct shape
// with a peer that breaks the plan and checks the frame pool's ledger: every
// Data frame a failed leg took, queued or never looked at goes back to the
// pool exactly once, and the invocation fails instead of hanging.
func TestMultiportFramesReturned(t *testing.T) {
	const n = 64
	transfer := func(token uint32, arg, dst, off, count int, reply bool) *wire.Data {
		return &wire.Data{RequestID: token, ArgIndex: uint32(arg), DstRank: uint32(dst), DstOff: uint64(off),
			Count: uint64(count), Reply: reply, Payload: dseq.MarshalChunk(dseq.Float64, make([]float64, count))}
	}

	// The server's receive leg, fed by a hand-rolled client thread that owns
	// both arguments whole: thread 0 gets the broken script, thread 1 its two
	// transfers as planned — but only once thread 0 has given up with the rest
	// of its script queued, so that the end of the call, which waits for thread
	// 1, finds those frames in the bucket it drops.
	for i, bad := range badMoves {
		t.Run("server/"+bad.name, func(t *testing.T) {
			defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
			rec := obs.NewRecorder(64)
			tc := startClusterOps(t, 2, true, func() []Operation {
				return []Operation{{Desc: pairDesc, NewArgs: SeqArgsFloat64(pairDesc.Args),
					Handler: func(*ServerCall) error { return nil }}}
			}, func(o *ExportOptions) { o.DataTimeout, o.Trace = 300*time.Millisecond, rec })
			tc.objMu.Lock()
			obj := tc.objects[0]
			tc.objMu.Unlock()
			ref := obj.Ref()
			cli := orb.NewClient()
			cli.Timeout = testTimeout
			defer cli.Close()

			whole, err := dist.Block{}.Layout(n, 1)
			if err != nil {
				t.Fatal(err)
			}
			h := &invocationHeader{Op: "pair", Method: Multiport, Token: 0x5e00 + uint32(i), ClientRanks: 1,
				Scalars: ScalarEncoder().Bytes(),
				Args:    []headerArg{{Dir: InOut, Elem: "double", Layout: whole}, {Dir: InOut, Elem: "double", Layout: whole}}}
			e := orb.NewArgEncoder()
			h.encode(e)
			done := make(chan error, 1)
			go func() {
				_, err := cli.Invoke(ref, "pair", e.Bytes(), false)
				done <- err
			}()
			send := func(r int) func(arg, off, count int) {
				return func(arg, off, count int) {
					if err := cli.SendData(ref, transfer(h.Token, arg, r, off, count, false)); err != nil {
						t.Error(err)
					}
				}
			}
			bad.play(send(0), n/2)
			if bad.queued > 0 {
				testutil.Eventually(t, testTimeout, "thread 0 never gave up on its receive leg", func() bool {
					obj.bucketMu.Lock()
					defer obj.bucketMu.Unlock()
					b := obj.buckets[h.Token]
					return b != nil && len(b.ch) == bad.queued && slices.ContainsFunc(rec.Spans(), func(sp obs.Span) bool {
						return sp.Phase == obs.PhaseRecvXfer && sp.Rank == 0
					})
				})
			}
			send(1)(0, 0, n/2)
			send(1)(1, 0, n/2)
			if err := <-done; err == nil {
				t.Fatal("the invocation succeeded on a broken receive leg")
			}
		})
	}

	// The client's back leg, fed by a hand-rolled one-thread server.
	for _, bad := range badMoves {
		t.Run("client/"+bad.name, func(t *testing.T) {
			defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
			srv, err := orb.NewServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			// One send per Data message of the forward leg: the client thread
			// ships each of the two arguments whole.
			attached := make(chan *transport.Conn, 2)
			srv.SetDataHandler(func(d *wire.Data, conn *transport.Conn) {
				d.Release()
				attached <- conn
			})
			key := []byte("spmd/hand-rolled")
			srv.Register(key, orb.ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
				if op == describeOp {
					encodeOpTable(out, []OpDesc{pairDesc})
					return nil
				}
				h, err := decodeInvocationHeader(in)
				if err != nil {
					return orb.Marshal(err)
				}
				conn := <-attached
				bad.play(func(arg, off, count int) {
					if err := conn.WriteMessage(transfer(h.Token, arg, 0, off, count, true)); err != nil {
						t.Error(err)
					}
				}, n)
				encodeReplyPrefix(out, nil, 0, len(h.Args))
				for _, a := range h.Args {
					encodeReplyArg(out, a.Dir, n)
				}
				return nil
			}))
			ref := orb.IOR{TypeID: "IDL:pair:1.0", Key: key, Threads: 1, Endpoints: []orb.Endpoint{srv.Endpoint(0)}}
			b, err := BindRef(ref, BindOptions{Method: Multiport, Timeout: 500 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			var args []DistArg
			for range pairDesc.Args {
				seq, err := dseq.New(b.Comm(), dseq.Float64, n, nil)
				if err != nil {
					t.Fatal(err)
				}
				args = append(args, InOutSeq(seq))
			}
			if _, err := b.Invoke("pair", ScalarEncoder().Bytes(), args); err == nil {
				t.Fatal("the invocation succeeded on a broken back leg")
			}
		})
	}
}

// TestBucketConnLooksFirst: a return flow resolves its client's connection from
// a bucket that already recorded it — the usual case, its forward leg arrived
// first — without arming the timer it would wait on; an attachment that never
// comes still ends the wait at the timeout.
func TestBucketConnLooksFirst(t *testing.T) {
	a, b := transport.Pipe(nil)
	defer a.Close()
	defer b.Close()
	bk := &dataBucket{notify: make(chan struct{}, 1), conns: map[int]*transport.Conn{1: a}}
	var got *transport.Conn
	var err error
	if allocs := testing.AllocsPerRun(100, func() { got, err = bk.conn(1, nil, time.Minute) }); allocs != 0 || got != a || err != nil {
		t.Fatalf("a recorded connection cost %.0f objects (conn %p, err %v)", allocs, got, err)
	}
	if _, err := bk.conn(0, nil, 10*time.Millisecond); err == nil || !strings.Contains(err.Error(), "no attachment from client thread 0") {
		t.Fatalf("waiting for an attachment that never comes: %v", err)
	}
}

// streamThenDie is a hand-rolled communicating thread that answers a "get" by
// streaming the first half of the result on the request's connection and then
// dying: the connection closes with the client owed two chunks and the Reply.
type streamThenDie struct{ n, chunk int }

func (s streamThenDie) Dispatch(string, *cdr.Decoder, *cdr.Encoder) error {
	return orb.Marshal(errors.New("the adapter did not say which connection"))
}

func (s streamThenDie) DispatchConn(conn *transport.Conn, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if op == describeOp {
		encodeOpTable(out, []OpDesc{{Name: "get", Args: []ArgDesc{{Name: "arr", Dir: Out, Elem: "double"}}}})
		return nil
	}
	h, err := decodeInvocationHeader(in)
	if err != nil {
		return orb.Marshal(err)
	}
	for off := 0; off < s.n/2; off += s.chunk {
		d := &wire.Data{RequestID: h.Token, DstOff: uint64(off), Count: uint64(s.chunk), Reply: true, Flags: wire.DataFlagChunk,
			Payload: dseq.MarshalChunk(dseq.Float64, make([]float64, s.chunk))}
		if err := conn.WriteMessage(d); err != nil {
			return orb.Marshal(err)
		}
	}
	conn.Close()
	return nil
}

// TestLostDataConnectionIsCommFailure loses a data connection in the middle
// of a leg, in both shapes and on both receiving ends, and requires the one
// classification every lost connection gets — a COMM_FAILURE system exception,
// which naming.Stale takes for "re-resolve" — identically on every thread.
func TestLostDataConnectionIsCommFailure(t *testing.T) {
	const n = 4 * shapeChunk
	check := func(t *testing.T, shape string) {
		t.Helper()
		if !strings.Contains(shape, "system "+orb.RepoComm+" stale=true") {
			t.Fatalf("the leg failed with\n  %s\nwant a COMM_FAILURE system exception that naming.Stale accepts", shape)
		}
	}
	zeros := func(count int) []byte { return dseq.MarshalChunk(dseq.Float64, make([]float64, count)) }
	shapes := []struct {
		name   string
		method Method
	}{{"chunked", Centralized}, {"direct", Multiport}}

	// The server's receive leg: a real two-thread object, a hand-rolled client
	// thread whose data travels on a connection of its own, which it closes
	// with thread 0 still owed data. The object's threads agree on thread 0's
	// failure; the reply carries it.
	for i, sh := range shapes {
		t.Run(sh.name+"/server receive leg", func(t *testing.T) {
			defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
			tc := startClusterOps(t, 2, true, func() []Operation { return shapeOps(func(*ServerCall) {}) })
			tc.objMu.Lock()
			ref := tc.objects[0].Ref()
			tc.objMu.Unlock()
			ctl, data := orb.NewClient(), orb.NewClient()
			ctl.Timeout = testTimeout
			defer ctl.Close()
			defer data.Close()

			whole, err := dist.Block{}.Layout(n, 1)
			if err != nil {
				t.Fatal(err)
			}
			h := &invocationHeader{Op: "put", Method: sh.method, Token: 0x10c0 + uint32(i), ClientRanks: 1,
				Scalars: ScalarEncoder().Bytes(), Args: []headerArg{{Dir: In, Elem: "double", Layout: whole}}}
			if sh.method == Centralized {
				// Thread 0 gets the first of four chunks and then the loss.
				h.ChunkElems = shapeChunk
				first := &wire.Data{RequestID: h.Token, Count: shapeChunk, Flags: wire.DataFlagChunk, Payload: zeros(shapeChunk)}
				if err := data.SendData(ref, first); err != nil {
					t.Fatal(err)
				}
			} else {
				// Thread 1 gets its half as planned; thread 0 an attachment,
				// which ties its bucket to the connection, and then the loss.
				if err := ctl.SendData(ref, &wire.Data{RequestID: h.Token, DstRank: 1, Count: n / 2, Payload: zeros(n / 2)}); err != nil {
					t.Fatal(err)
				}
				if err := data.SendData(ref, &wire.Data{RequestID: h.Token}); err != nil {
					t.Fatal(err)
				}
			}
			data.Close()
			e := orb.NewArgEncoder()
			h.encode(e)
			_, err = ctl.Invoke(ref, "put", e.Bytes(), false)
			check(t, errorShape(err))
		})
	}

	// The client's back leg: a two-thread client, a hand-rolled one-thread
	// server that answers a swap with less than it owes and a lost connection
	// — thread 1's own in the direct shape; in the chunked one, whose chunks
	// share the reply's connection, another connection of thread 0's engine,
	// which poisons every sink of the engine as a sibling binding's would.
	for _, sh := range shapes {
		t.Run(sh.name+"/client back leg", func(t *testing.T) {
			defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
			srv, err := orb.NewServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			other, err := orb.NewServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer other.Close()
			// The connection each client thread's forward leg arrived on.
			var mu sync.Mutex
			conns := map[uint32]*transport.Conn{}
			srv.SetDataHandler(func(d *wire.Data, conn *transport.Conn) {
				mu.Lock()
				conns[d.SrcRank] = conn
				mu.Unlock()
				d.Release()
			})
			connOf := func(rank uint32) *transport.Conn {
				var c *transport.Conn
				testutil.Eventually(t, testTimeout, "a client thread's forward leg never arrived", func() bool {
					mu.Lock()
					defer mu.Unlock()
					c = conns[rank]
					return c != nil
				})
				return c
			}
			swap := OpDesc{Name: "swap", Args: []ArgDesc{{Name: "arr", Dir: InOut, Elem: "double"}}}
			key := []byte("spmd/hand-rolled")
			srv.Register(key, orb.ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
				if op == describeOp {
					encodeOpTable(out, []OpDesc{swap})
					return nil
				}
				h, err := decodeInvocationHeader(in)
				if err != nil {
					return orb.Marshal(err)
				}
				part := &wire.Data{RequestID: h.Token, Reply: true}
				if sh.method == Centralized {
					part.Count, part.Flags, part.Payload = shapeChunk, wire.DataFlagChunk, zeros(shapeChunk)
				} else {
					part.Count, part.Payload = n/2, zeros(n/2)
				}
				if err := connOf(0).WriteMessage(part); err != nil {
					t.Error(err)
				}
				ce := 0
				if sh.method == Centralized {
					other.Close()
					ce = int(h.ResultChunkElems)
				} else {
					connOf(1).Close()
				}
				encodeReplyPrefix(out, nil, ce, 1)
				encodeReplyArg(out, InOut, n)
				return nil
			}))
			ref := orb.IOR{TypeID: "IDL:swap:1.0", Key: key, Threads: 1, Endpoints: []orb.Endpoint{srv.Endpoint(0)}}
			otherRef := orb.IOR{TypeID: "IDL:other:1.0", Key: key, Threads: 1, Endpoints: []orb.Endpoint{other.Endpoint(0)}}

			check(t, sameOnEveryThread(t, 2, func(c *rts.Comm) error {
				b, err := SPMDBindRef(c, ref, BindOptions{Method: sh.method, Timeout: testTimeout, StreamChunkElems: shapeChunk})
				if err != nil {
					return err
				}
				defer b.Close()
				if sh.method == Centralized && c.Rank() == 0 {
					if _, err := b.client.DataConn(otherRef, 0); err != nil {
						return err
					}
				}
				arr, err := dseq.New(c, dseq.Float64, n, nil)
				if err != nil {
					return err
				}
				_, err = b.Invoke("swap", ScalarEncoder().Bytes(), []DistArg{InOutSeq(arr)})
				return err
			}))
		})
	}

	// The reply stream of an out-only call, whose request leg was inline: the
	// server dies with half the chunks written and no Reply. Thread 0 is still
	// inside the exchange, the chunks that did arrive are on loan in its lane's
	// sink; every thread ends the same way, the frames go back, and nothing —
	// no sender, no sink reader — outlives the binding.
	t.Run("chunked/server dies mid reply stream of an out-only call", func(t *testing.T) {
		defer testutil.LeakCheck(t)()
		defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
		srv, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		key := []byte("spmd/hand-rolled")
		srv.Register(key, streamThenDie{n: n, chunk: shapeChunk})
		ref := orb.IOR{TypeID: "IDL:get:1.0", Key: key, Threads: 1, Endpoints: []orb.Endpoint{srv.Endpoint(0)}}
		check(t, sameOnEveryThread(t, 2, func(c *rts.Comm) error {
			b, err := SPMDBindRef(c, ref, BindOptions{Timeout: testTimeout, StreamChunkElems: shapeChunk})
			if err != nil {
				return err
			}
			defer b.Close()
			arr, err := dseq.New(c, dseq.Float64, 0, nil)
			if err != nil {
				return err
			}
			_, err = b.Invoke("get", ScalarEncoder().Bytes(), []DistArg{OutSeq(arr)})
			return err
		}))
	})
}
