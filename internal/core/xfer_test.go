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

// legFrame is one Data frame of a direct leg as a hand-rolled peer sends it:
// count elements of argument arg from thread src at the receiver's local offset
// off, with the chunk flags the schedule gives the step.
type legFrame struct {
	arg, src, off, count int
	flags                byte
}

// sendData writes d to the endpoint of ref that serves its destination thread,
// as a hand-rolled client thread does.
func sendData(cli *orb.Client, ref orb.IOR, d *wire.Data) error {
	ep, err := ref.EndpointFor(int(d.DstRank))
	if err != nil {
		return err
	}
	conn, err := cli.DataConn(ep.Addr())
	if err != nil {
		return err
	}
	return conn.WriteMessage(d)
}

// TestTargetNoEndpointForRank: a profile resolves a computing thread's data
// connection by the endpoint it names for that thread, and refuses one it
// names none for.
func TestTargetNoEndpointForRank(t *testing.T) {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := orb.NewClient()
	defer cli.Close()
	tg := newTarget(cli, orb.IOR{TypeID: "IDL:test:1.0", Key: []byte("k"), Threads: 2, Endpoints: []orb.Endpoint{srv.Endpoint(0)}})
	if _, err := tg.dataConn(0); err != nil {
		t.Fatalf("thread 0: %v", err)
	}
	if _, err := tg.dataConn(1); !errors.Is(err, orb.ErrBadIOR) {
		t.Fatalf("thread 1, which the profile names no endpoint for: %v, want %v", err, orb.ErrBadIOR)
	}
}

func (f legFrame) data(token uint32, dst int, reply bool) *wire.Data {
	return &wire.Data{RequestID: token, ArgIndex: uint32(f.arg), SrcRank: uint32(f.src), DstRank: uint32(dst), DstOff: uint64(f.off),
		Count: uint64(f.count), Reply: reply, Flags: f.flags, Payload: dseq.MarshalChunk(dseq.Float64, make([]float64, f.count))}
}

// planFrames lists what the chunk schedule owes one thread of a two-argument
// leg: per argument, from each of two sources a move of perMove elements in
// chunks of ce, source 0's at local offset 0 and source 1's after it.
func planFrames(perMove, ce int) (frames []legFrame) {
	for arg := 0; arg < 2; arg++ {
		for src := 0; src < 2; src++ {
			for off := 0; off < perMove; off += ce {
				frames = append(frames, legFrame{arg: arg, src: src, off: src*perMove + off, count: ce, flags: chunkFlags(off+ce == perMove)})
			}
		}
	}
	return frames
}

// badMoves are the ways a direct leg's peer can break the schedule. play turns
// the frames the receiving thread is owed (planFrames: the first two are
// chunks 0 and 1 of its first move) into the script the peer sends, and names
// the frame of it the leg must refuse: what follows that one stays queued
// behind the leg. refused -1 is a script the leg takes whole and then waits on.
// why is what the leg's error says about it.
var badMoves = []struct {
	name, why string
	play      func(good []legFrame) (script []legFrame, refused int)
}{
	{"off-plan offset", "off 5 count 8 last false, want arg 0 from thread 0 off 0 count 8", func(good []legFrame) ([]legFrame, int) {
		script := slices.Clone(good)
		script[0].off += 5
		return script, 0
	}},
	{"wrong count", "off 0 count 7 last false, want arg 0 from thread 0 off 0 count 8", func(good []legFrame) ([]legFrame, int) {
		script := slices.Clone(good)
		script[0].count--
		return script, 0
	}},
	// Sources deliver in any order among themselves: the later argument's
	// chunks from thread 1 are stored while thread 0 still owes the first's.
	{"timeout after a later argument arrived", "no data frame arrived", func(good []legFrame) ([]legFrame, int) {
		return slices.DeleteFunc(slices.Clone(good), func(f legFrame) bool { return f.src == 0 }), -1
	}},
	{"duplicate chunk", "off 0 count 8 last false, want arg 0 from thread 0 off 8 count 8 last", func(good []legFrame) ([]legFrame, int) {
		return slices.Insert(slices.Clone(good), 1, good[0]), 1
	}},
	{"chunk of the right move out of order", "off 8 count 8 last", func(good []legFrame) ([]legFrame, int) {
		script := slices.Clone(good)
		script[0], script[1] = script[1], script[0]
		return script, 0
	}},
	{"last flag missing", "last false, want arg 0 from thread 0 off", func(good []legFrame) ([]legFrame, int) {
		script := slices.Clone(good)
		at := slices.IndexFunc(script, func(f legFrame) bool { return f.flags&wire.DataFlagLast != 0 })
		script[at].flags &^= wire.DataFlagLast
		return script, at
	}},
	{"frame from an unplanned source", "chunk from thread 7 of a plan with 2 sources", func(good []legFrame) ([]legFrame, int) {
		script := slices.Clone(good)
		script[0].src = 7
		return script, 0
	}},
}

// TestMultiportFramesReturned drives both receiving ends of the direct shape —
// the chunk ledger — with a peer that breaks the schedule and checks the frame
// pool's ledger: every Data frame a failed leg took, queued or never looked at
// goes back to the pool exactly once, and the invocation fails instead of
// hanging.
func TestMultiportFramesReturned(t *testing.T) {
	const n, ce = 64, 8

	// The server's receive leg, fed by a hand-rolled client of two threads
	// that hold a quarter and three quarters of both arguments, so that server
	// thread 0's half comes in two moves of two chunks, one from each: thread 0
	// gets the broken script, thread 1 its own chunks as planned — but only
	// once thread 0 has given up with the rest of its script queued, so that
	// the end of the call, which waits for thread 1, finds those frames in the
	// bucket it drops.
	for i, bad := range badMoves {
		t.Run("server/"+bad.name, func(t *testing.T) {
			defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
			rec := obs.NewRecorder(256)
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

			held, err := dist.Proportions{P: []int{1, 3}}.Layout(n, 2)
			if err != nil {
				t.Fatal(err)
			}
			h := &invocationHeader{Op: "pair", Method: Multiport, ChunkElems: ce, Token: 0x5e00 + uint32(i), ClientRanks: 2,
				Scalars: ScalarEncoder().Bytes(),
				Args:    []headerArg{{Dir: InOut, Elem: "double", Layout: held}, {Dir: InOut, Elem: "double", Layout: held}}}
			e := orb.NewArgEncoder()
			h.encode(e)
			done := make(chan error, 1)
			go func() {
				_, err := cli.Invoke(ref, "pair", e.Bytes(), false)
				done <- err
			}()
			send := func(dst int, f legFrame) {
				if err := sendData(cli, ref, f.data(h.Token, dst, false)); err != nil {
					t.Error(err)
				}
			}
			script, refused := bad.play(planFrames(n/4, ce))
			for _, f := range script {
				send(0, f)
			}
			if refused >= 0 {
				testutil.Eventually(t, testTimeout, "thread 0 never gave up on its receive leg", func() bool {
					obj.bucketMu.Lock()
					defer obj.bucketMu.Unlock()
					b := obj.buckets[h.Token]
					return b != nil && len(b.ch) == len(script)-refused-1 && slices.ContainsFunc(rec.Spans(), func(sp obs.Span) bool {
						return sp.Phase == obs.PhaseRecvXfer && sp.Rank == 0
					})
				})
			}
			// Thread 1's half is one move from client thread 1.
			for arg := 0; arg < 2; arg++ {
				for off := 0; off < n/2; off += ce {
					send(1, legFrame{arg: arg, src: 1, off: off, count: ce, flags: chunkFlags(off+ce == n/2)})
				}
			}
			if err := <-done; err == nil || !strings.Contains(err.Error(), bad.why) {
				t.Fatalf("the invocation on a broken receive leg ended with %v, want an error saying %q", err, bad.why)
			}
		})
	}

	// The client's back leg, fed by a hand-rolled server that answers for two
	// threads, each holding half of both arguments.
	for _, bad := range badMoves {
		t.Run("client/"+bad.name, func(t *testing.T) {
			defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
			srv, err := orb.NewServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			// The forward leg's chunks all arrive on the client thread's one
			// connection to this address.
			attached := make(chan *transport.Conn, 1)
			srv.SetDataHandler(func(d *wire.Data, conn *transport.Conn) {
				d.Release()
				select {
				case attached <- conn:
				default:
				}
			})
			key := []byte("spmd/hand-rolled")
			srv.Register(key, orb.ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
				if op == describeOp {
					encodeOpTable(out, []OpDesc{pairDesc})
					return nil
				}
				h, err := freshHeader(in)
				if err != nil {
					return orb.Marshal(err)
				}
				conn := <-attached
				script, _ := bad.play(planFrames(n/2, ce))
				for _, f := range script {
					if err := conn.WriteMessage(f.data(h.Token, 0, true)); err != nil {
						t.Error(err)
					}
				}
				encodeReplyPrefix(out, nil, 0, len(h.Args))
				for _, a := range h.Args {
					encodeReplyArg(out, a.Dir, n)
				}
				return nil
			}))
			ref := orb.IOR{TypeID: "IDL:pair:1.0", Key: key, Threads: 2, Endpoints: []orb.Endpoint{srv.Endpoint(0), srv.Endpoint(1)}}
			b, err := BindRef(ref, BindOptions{Method: Multiport, Timeout: 500 * time.Millisecond, streamChunkElems: ce})
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
			if _, err := b.Invoke("pair", ScalarEncoder().Bytes(), args); err == nil || !strings.Contains(err.Error(), bad.why) {
				t.Fatalf("the invocation on a broken back leg ended with %v, want an error saying %q", err, bad.why)
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

func (s streamThenDie) DispatchConn(conn *transport.Conn, op string, in *cdr.Decoder, out *cdr.Encoder) (bool, error) {
	if op == describeOp {
		encodeOpTable(out, []OpDesc{{Name: "get", Args: []ArgDesc{{Name: "arr", Dir: Out, Elem: "double"}}}})
		return false, nil
	}
	h, err := freshHeader(in)
	if err != nil {
		return false, orb.Marshal(err)
	}
	for off := 0; off < s.n/2; off += s.chunk {
		d := &wire.Data{RequestID: h.Token, DstOff: uint64(off), Count: uint64(s.chunk), Reply: true, Flags: wire.DataFlagChunk,
			Payload: dseq.MarshalChunk(dseq.Float64, make([]float64, s.chunk))}
		if err := conn.WriteMessage(d); err != nil {
			return false, orb.Marshal(err)
		}
	}
	conn.Close()
	return false, nil
}

// TestLostDataConnectionIsCommFailure loses a data connection in the middle
// of a leg — between two chunks of one move — in both shapes and on both
// receiving ends, and requires the one
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
				if err := sendData(data, ref, first); err != nil {
					t.Fatal(err)
				}
			} else {
				// Thread 1 gets its half as planned, two chunks; thread 0 the
				// first of its two on a connection of its own, and then the loss:
				// the cut lands between two chunks of one move.
				h.ChunkElems = shapeChunk
				for off := uint64(0); off < n/2; off += shapeChunk {
					d := &wire.Data{RequestID: h.Token, DstRank: 1, DstOff: off, Count: shapeChunk, Flags: chunkFlags(off+shapeChunk == n/2), Payload: zeros(shapeChunk)}
					if err := sendData(ctl, ref, d); err != nil {
						t.Fatal(err)
					}
				}
				first := &wire.Data{RequestID: h.Token, Count: shapeChunk, Flags: wire.DataFlagChunk, Payload: zeros(shapeChunk)}
				if err := sendData(data, ref, first); err != nil {
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
	// share the reply's connection, thread 0's engine's connection to another
	// endpoint of the reference's profile, which poisons the sinks registered
	// for that profile.
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
				h, err := freshHeader(in)
				if err != nil {
					return orb.Marshal(err)
				}
				// Thread 0 gets one chunk of the four a centralized reply leg owes
				// it; of a direct one, its two whole and thread 1 the first of its
				// two, so that the cut lands between two chunks of one move.
				chunk := func(dst, off uint32, last bool) {
					d := &wire.Data{RequestID: h.Token, Reply: true, DstRank: dst, DstOff: uint64(off), Count: shapeChunk,
						Flags: chunkFlags(last), Payload: zeros(shapeChunk)}
					if err := connOf(dst).WriteMessage(d); err != nil {
						t.Error(err)
					}
				}
				chunk(0, 0, false)
				ce := 0
				if sh.method == Centralized {
					other.Close()
					ce = int(h.ResultChunkElems)
				} else {
					chunk(0, shapeChunk, true)
					chunk(1, 0, false)
					connOf(1).Close()
				}
				encodeReplyPrefix(out, nil, ce, 1)
				encodeReplyArg(out, InOut, n)
				return nil
			}))
			ref := orb.IOR{TypeID: "IDL:swap:1.0", Key: key, Threads: 1, Endpoints: []orb.Endpoint{srv.Endpoint(0), other.Endpoint(0)}}
			otherRef := orb.IOR{TypeID: "IDL:other:1.0", Key: key, Threads: 1, Endpoints: []orb.Endpoint{other.Endpoint(0)}}

			check(t, sameOnEveryThread(t, 2, func(c *rts.Comm) error {
				b, err := SPMDBindRef(c, ref, BindOptions{Method: sh.method, Timeout: testTimeout, streamChunkElems: shapeChunk})
				if err != nil {
					return err
				}
				defer b.Close()
				if sh.method == Centralized && c.Rank() == 0 {
					if _, err := b.client.DataConn(otherRef.Endpoints[0].Addr()); err != nil {
						return err
					}
				}
				arr, err := dseq.New(c, dseq.Float64, n, nil)
				if err != nil {
					return err
				}
				_, err = b.Invoke("swap", ScalarEncoder().Bytes(), []DistArg{InOutSeq(arr)})
				return aligned(b, err)
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
			b, err := SPMDBindRef(c, ref, BindOptions{Timeout: testTimeout, streamChunkElems: shapeChunk})
			if err != nil {
				return err
			}
			defer b.Close()
			arr, err := dseq.New(c, dseq.Float64, 0, nil)
			if err != nil {
				return err
			}
			_, err = b.Invoke("get", ScalarEncoder().Bytes(), []DistArg{OutSeq(arr)})
			return aligned(b, err)
		}))
	})
}
