package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
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
				encodeReplyPrefix(out, nil, len(h.Args))
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
