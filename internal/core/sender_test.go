package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/dseq"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// senderLeg is one user of chunkSender wired to a live peer: the connections
// the leg hands its sender, the Data messages the peer has received (payloads
// copied out, in arrival order), and the teardown.
type senderLeg struct {
	conns connSource
	recv  chan *wire.Data
	stop  func()
}

// The two users, their sending connection configured by opts. The client's
// request leg resolves its data connection through the profile it was routed
// to (target); the server's reply leg writes to the connection the request
// arrived on (pendingCall), here one end of an in-process pipe.
var senderLegs = []struct {
	name string
	open func(t *testing.T, opts *transport.Options) senderLeg
}{
	{"client-DataConn", func(t *testing.T, opts *transport.Options) senderLeg {
		srv, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		recv := make(chan *wire.Data, 256)
		srv.SetDataHandler(func(d *wire.Data, _ *transport.Conn) {
			recv <- &wire.Data{ArgIndex: d.ArgIndex, DstOff: d.DstOff, Count: d.Count, Reply: d.Reply,
				Flags: d.Flags, Payload: append([]byte(nil), d.Payload...)}
			d.Release()
		})
		client := orb.NewClient()
		client.Transport = opts
		tg := newTarget(client, orb.IOR{TypeID: "IDL:test/sender:1.0", Key: []byte("k"), Threads: 1, Endpoints: []orb.Endpoint{srv.Endpoint(0)}})
		return senderLeg{
			conns: &tg,
			recv:  recv,
			stop:  func() { client.Close(); srv.Close() },
		}
	}},
	{"server-conn", func(t *testing.T, opts *transport.Options) senderLeg {
		a, b := transport.Pipe(opts)
		recv := make(chan *wire.Data, 256)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				m, err := b.ReadMessage()
				if err != nil {
					return
				}
				d := m.(*wire.Data)
				recv <- &wire.Data{ArgIndex: d.ArgIndex, DstOff: d.DstOff, Count: d.Count, Reply: d.Reply,
					Flags: d.Flags, Payload: append([]byte(nil), d.Payload...)}
				d.Release()
			}
		}()
		return senderLeg{
			conns: &pendingCall{conn: a},
			recv:  recv,
			stop:  func() { a.Close(); b.Close(); <-done },
		}
	}},
}

// cutStream counts the writes to a stream, and fails every one from the cut-th
// on: a connection broken under its writer. A message of the tests below is
// one write.
type cutStream struct {
	io.ReadWriteCloser
	cut    int
	writes *int
}

var errCut = errors.New("stream cut")

func (s cutStream) Write(p []byte) (int, error) {
	if *s.writes++; *s.writes >= s.cut {
		return 0, errCut
	}
	return s.ReadWriteCloser.Write(p)
}

func (l senderLeg) next(t *testing.T) *wire.Data {
	t.Helper()
	select {
	case d := <-l.recv:
		return d
	case <-time.After(testTimeout):
		t.Fatal("peer never received the next chunk")
		return nil
	}
}

// chunkBody is a payload that depends on k in content and in length, so a slot
// reused while its bytes were still in flight shows as a wrong body.
func chunkBody(k int) []byte { return bytes.Repeat([]byte{byte(k)}, 100*(k%7+1)) }

// failingSeq is a sequence whose failAt-th collective gather fails.
type failingSeq struct {
	*dseq.Seq[float64]
	failAt, calls int
}

var errGather = errors.New("gather broke")

func (f *failingSeq) GatherMarshalRangeTo(c *rts.Comm, root, start, n int, mask uint8, dst *cdr.Encoder) error {
	if f.calls++; f.calls == f.failAt {
		return errGather
	}
	return f.Seq.GatherMarshalRangeTo(c, root, start, n, mask, dst)
}

// TestChunkSender drives the one encode-ahead sender for both of its users:
// the schedule reaches the peer in order whatever the ring does, the first
// write failure stops the writing but not the schedule and surfaces once as
// COMM_FAILURE, a failed gather turns the rest of the schedule into fail
// markers that still go out, and the worker is gone after close.
func TestChunkSender(t *testing.T) {
	const chunks = 40 // many times around the ring
	for _, user := range senderLegs {
		t.Run(user.name+"/order", func(t *testing.T) {
			defer testutil.LeakCheck(t)()
			leg := user.open(t, nil)
			defer leg.stop()
			cs := newChunkSender(leg.conns)
			for k := 0; k < chunks; k++ {
				s := cs.next()
				if s.enc.Len() != 0 {
					t.Fatalf("slot for chunk %d still holds %d bytes", k, s.enc.Len())
				}
				s.enc.WriteRaw(chunkBody(k))
				s.msg = wire.Data{DstOff: uint64(k), Count: 1, Flags: chunkFlags(k == chunks-1), Payload: s.enc.Bytes()}
				cs.send(s)
			}
			if err := cs.close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			for k := 0; k < chunks; k++ {
				d := leg.next(t)
				if d.DstOff != uint64(k) || d.LastChunk() != (k == chunks-1) || !bytes.Equal(d.Payload, chunkBody(k)) {
					t.Fatalf("chunk %d arrived as off %d last %v with %d payload bytes", k, d.DstOff, d.LastChunk(), len(d.Payload))
				}
			}
		})

		t.Run(user.name+"/write-error", func(t *testing.T) {
			defer testutil.LeakCheck(t)()
			const failAt = 5
			writes := 0 // the worker's alone until close returns
			leg := user.open(t, &transport.Options{Wrap: func(rw io.ReadWriteCloser) io.ReadWriteCloser {
				return cutStream{ReadWriteCloser: rw, cut: failAt, writes: &writes}
			}})
			defer leg.stop()
			cs := newChunkSender(leg.conns)
			for k := 0; k < chunks; k++ { // the schedule still drains
				s := cs.next()
				s.enc.WriteRaw(chunkBody(k))
				s.msg = wire.Data{DstOff: uint64(k), Count: 1, Payload: s.enc.Bytes()}
				cs.send(s)
			}
			err := cs.close()
			var se *orb.SystemException
			if !errors.As(err, &se) || se.RepoID != orb.RepoComm {
				t.Fatalf("close: %v, want COMM_FAILURE", err)
			}
			if writes != failAt {
				t.Fatalf("%d writes attempted, want none after the %dth failed", writes, failAt)
			}
			for k := 0; k < failAt-1; k++ {
				if d := leg.next(t); d.DstOff != uint64(k) {
					t.Fatalf("chunk %d arrived as off %d", k, d.DstOff)
				}
			}
		})

		t.Run(user.name+"/fail-markers", func(t *testing.T) {
			defer testutil.LeakCheck(t)()
			leg := user.open(t, nil)
			defer leg.stop()
			const ce, failAt = 64, 3
			w := rts.NewWorld(1, rts.Options{RecvTimeout: testTimeout})
			defer w.Close()
			err := w.Run(func(c *rts.Comm) error {
				seq, err := dseq.New(c, dseq.Float64, 5*ce, nil)
				if err != nil {
					return err
				}
				seq.FillFunc(func(g int) float64 { return float64(g) })
				spans := 0
				carried := []dseq.Transferable{nil, &failingSeq{Seq: seq, failAt: failAt}}
				_, err = sendChunks(c, newChunkSender(leg.conns), nil, 7, true, ce, 0,
					len(carried), func(i int) dseq.Transferable { return carried[i] }, func(time.Time) { spans++ })
				if !errors.Is(err, errGather) {
					return fmt.Errorf("sendChunks: %v, want the gather's own error", err)
				}
				if spans != 5 {
					return fmt.Errorf("%d chunk spans, want 5", spans)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 5; k++ {
				d := leg.next(t)
				if d.ArgIndex != 1 || !d.Reply || !d.Chunked() || d.DstOff != uint64(k*ce) || d.LastChunk() != (k == 4) {
					t.Fatalf("chunk %d arrived as %+v", k, d)
				}
				if failed := k >= failAt-1; dseq.IsFailMarker(d.Payload) != failed {
					t.Fatalf("chunk %d: fail marker %v, want %v", k, !failed, failed)
				}
			}
		})
	}
}
