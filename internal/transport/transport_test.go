package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/cdr"
	"repro/internal/testutil"
	"repro/internal/wire"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe(nil)
	defer a.Close()
	defer b.Close()

	want := &wire.Request{RequestID: 1, ResponseExpected: true, Operation: "op", Args: []byte("abc")}
	if err := a.WriteMessage(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	req, ok := got.(*wire.Request)
	if !ok || req.Operation != "op" || string(req.Args) != "abc" {
		t.Fatalf("got %#v", got)
	}
}

// TestFragmentationRoundTrip sends a Data message four times over the 256 KiB
// a PGIOP 8 writer cut bodies at: it crosses as one frame whose header
// declares the whole body, and arrives intact.
func TestFragmentationRoundTrip(t *testing.T) {
	var frames []wire.Header
	a, b := Pipe(&Options{FrameHook: func(h wire.Header) { frames = append(frames, h) }})
	defer a.Close()
	defer b.Close()

	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(payload)
	want := &wire.Data{RequestID: 9, SrcRank: 1, DstRank: 2, Count: 1 << 17, Payload: payload}
	if err := a.WriteMessage(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	defer got.(*wire.Data).Release()
	if len(frames) != 1 || int(frames[0].Size) != wire.DataPrefixLen+len(payload) {
		t.Fatalf("read frames %+v, want one of %d bytes", frames, wire.DataPrefixLen+len(payload))
	}
	if data := got.(*wire.Data); !bytes.Equal(data.Payload, payload) || data.RequestID != 9 {
		t.Fatal("payload corrupted")
	}
}

// TestFragmentBoundaries sends Data bodies around the edges of the frame
// pool's size classes — the one size boundary a reader has, where the frame
// it rents moves up a class — from the smallest class to past the largest,
// where the frame is the collector's: each crosses as one frame, intact, and
// every rented frame goes back.
func TestFragmentBoundaries(t *testing.T) {
	defer testutil.BalanceCheck(t, "frame pool", PoolOutstanding)()
	a, b := Pipe(nil)
	defer a.Close()
	defer b.Close()
	for _, class := range []int{512, 64 << 10, 4 << 20} {
		for _, extra := range []int{-1, 0, 1} {
			size := class + bufpool.Headroom + extra // the body: prefix and payload
			payload := bytes.Repeat([]byte{byte(size)}, size-wire.DataPrefixLen)
			if err := a.WriteMessage(&wire.Data{RequestID: 1, Payload: payload}); err != nil {
				t.Fatalf("body %d: write: %v", size, err)
			}
			got, err := b.ReadMessage()
			if err != nil {
				t.Fatalf("body %d: %v", size, err)
			}
			d := got.(*wire.Data)
			if !bytes.Equal(d.Payload, payload) {
				t.Fatalf("body %d: payload corrupted", size)
			}
			d.Release()
		}
	}
}

// TestLeadingFragmentRejected refuses a frame that announces more fragments:
// flag bit 1 is reserved since PGIOP 9, so a leading or stray fragment ends
// the read at its header.
func TestLeadingFragmentRejected(t *testing.T) {
	h := wire.EncodeHeader(wire.MsgRequest, cdr.NativeOrder, false, 5)
	h[5] |= 1 << 1
	c := NewConn(&byteStream{r: bytes.NewReader(append(h[:], "loose"...))}, nil)
	if _, err := c.ReadMessage(); !errors.Is(err, wire.ErrBadFlags) {
		t.Fatalf("want ErrBadFlags, got %v", err)
	}
}

func TestConcurrentWritersDoNotInterleave(t *testing.T) {
	a, b := Pipe(nil)
	defer a.Close()
	defer b.Close()

	const writers, msgs = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				payload := bytes.Repeat([]byte{byte(w)}, 100+w)
				if err := a.WriteMessage(&wire.Data{RequestID: uint32(w), Payload: payload}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	got := 0
	for got < writers*msgs {
		m, err := b.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		d := m.(*wire.Data)
		for _, x := range d.Payload {
			if x != byte(d.RequestID) {
				t.Fatalf("message from writer %d contains byte %d (interleaved writes)", d.RequestID, x)
			}
		}
		if len(d.Payload) != 100+int(d.RequestID) {
			t.Fatalf("writer %d: length %d", d.RequestID, len(d.Payload))
		}
		got++
	}
	wg.Wait()
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Port() == 0 {
		t.Fatal("listener port 0")
	}

	type result struct {
		m   wire.Message
		err error
	}
	res := make(chan result, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			res <- result{err: err}
			return
		}
		defer conn.Close()
		m, err := conn.ReadMessage()
		if err != nil {
			res <- result{err: err}
			return
		}
		// Echo a reply back.
		req := m.(*wire.Request)
		err = conn.WriteMessage(&wire.Reply{RequestID: req.RequestID, Status: wire.ReplyNoException, Args: req.Args})
		res <- result{m: m, err: err}
	}()

	c, err := Dial(l.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteMessage(&wire.Request{RequestID: 5, Operation: "echo", Args: []byte("ping")}); err != nil {
		t.Fatal(err)
	}
	reply, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	r := reply.(*wire.Reply)
	if r.RequestID != 5 || string(r.Args) != "ping" {
		t.Fatalf("reply %+v", r)
	}
	if sr := <-res; sr.err != nil {
		t.Fatal(sr.err)
	}
}

func TestTCPLargeMessage(t *testing.T) {
	l, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 4<<20) // a 2^19-double sequence
	rand.New(rand.NewSource(3)).Read(payload)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.WriteMessage(&wire.Data{RequestID: 1, Payload: payload})
	}()
	c, err := Dial(l.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if d := m.(*wire.Data); !bytes.Equal(d.Payload, payload) {
		t.Fatal("large payload corrupted")
	}
}

func TestReadAfterPeerClose(t *testing.T) {
	a, b := Pipe(nil)
	a.Close()
	if _, err := b.ReadMessage(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := b.WriteMessage(&wire.CloseConnection{}); err == nil {
		t.Fatal("write to closed pipe accepted")
	}
}

func TestWriteAfterLocalClose(t *testing.T) {
	a, _ := Pipe(nil)
	a.Close()
	if err := a.WriteMessage(&wire.CloseConnection{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestOversizeRejected(t *testing.T) {
	old := maxMessageSize
	maxMessageSize = 1 << 16
	defer func() { maxMessageSize = old }()

	a, b := Pipe(nil)
	defer a.Close()
	defer b.Close()
	huge := &wire.Data{Payload: make([]byte, maxMessageSize+1)}
	if err := a.WriteMessage(huge); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("write side: want ErrTooLarge, got %v", err)
	}

	// Read side: forge a frame whose header claims an oversize body.
	r, w := Pipe(nil)
	defer r.Close()
	defer w.Close()
	h := wire.EncodeHeader(wire.MsgData, cdr.NativeOrder, false, maxMessageSize+1)
	end := &pipeEnd{r: newPipeBuffer(), w: newPipeBuffer()}
	end.r.Write(h[:])
	end.r.close()
	c := NewConn(end, nil)
	if _, err := c.ReadMessage(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("read side: want ErrTooLarge, got %v", err)
	}
}

func TestGarbageStream(t *testing.T) {
	// A reader over garbage bytes must fail cleanly, not panic or hang.
	garbage := &pipeEnd{r: newPipeBuffer(), w: newPipeBuffer()}
	garbage.r.Write([]byte("this is not a PGIOP frame at all........"))
	garbage.r.close()
	c := NewConn(garbage, nil)
	if _, err := c.ReadMessage(); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestRetiredTypeRefused asserts what the fuzz corpus's cancel-frame (the same
// bytes) only exercises: a well-formed frame whose type is the first code past
// Pong, which the protocol does not define, is refused.
func TestRetiredTypeRefused(t *testing.T) {
	h := wire.EncodeHeader(wire.MsgPong+1, cdr.LittleEndian, false, 4)
	frame := append(h[:], 9, 0, 0, 0)
	c := NewConn(&byteStream{r: bytes.NewReader(frame)}, nil)
	if _, err := c.ReadMessage(); !errors.Is(err, wire.ErrBadType) {
		t.Fatalf("retired type code %d: want ErrBadType, got %v", frame[6], err)
	}
}

func TestPoolStatsMove(t *testing.T) {
	before := PoolStats()
	bufpool.Frames.Return(bufpool.Frames.Rent(512))
	bufpool.Frames.Return(bufpool.Frames.Rent(512)) // likely a hit now that one is pooled
	after := PoolStats()
	if after.Hits+after.Misses != before.Hits+before.Misses+2 {
		t.Fatalf("Rent did not count: %+v -> %+v", before, after)
	}
	if after.Returns != before.Returns+2 {
		t.Fatalf("Return did not count: %+v -> %+v", before, after)
	}
	// Oversize buffers are the garbage collector's: they never enter the ledger.
	big := bufpool.Frames.Rent(4<<20 + bufpool.Headroom + 1)
	bufpool.Frames.Return(big)
	if final := PoolStats(); final != after {
		t.Fatalf("an oversize buffer moved the ledger: %+v -> %+v", after, final)
	}
}

func TestPipeBufferSemantics(t *testing.T) {
	pb := newPipeBuffer()
	if n, err := pb.Write([]byte("xy")); n != 2 || err != nil {
		t.Fatal(n, err)
	}
	buf := make([]byte, 1)
	if n, err := pb.Read(buf); n != 1 || err != nil || buf[0] != 'x' {
		t.Fatal(n, err, buf)
	}
	pb.close()
	if n, err := pb.Read(buf); n != 1 || err != nil || buf[0] != 'y' {
		t.Fatalf("drain after close: %d %v %v", n, err, buf)
	}
	if _, err := pb.Read(buf); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if _, err := pb.Write([]byte("z")); err == nil {
		t.Fatal("write after close accepted")
	}
}

// TestManySequentialMessages streams big-endian frames: a Conn writes its
// native order, but it reads either.
func TestManySequentialMessages(t *testing.T) {
	a, b := Pipe(nil)
	a.order = cdr.BigEndian
	defer a.Close()
	defer b.Close()
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			payload := bytes.Repeat([]byte{byte(i)}, i%97)
			if err := a.WriteMessage(&wire.Data{RequestID: uint32(i), Payload: payload}); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		m, err := b.ReadMessage()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		d := m.(*wire.Data)
		if d.RequestID != uint32(i) {
			t.Fatalf("message %d arrived as %d (reordered)", i, d.RequestID)
		}
		if len(d.Payload) != i%97 {
			t.Fatalf("message %d: %d bytes", i, len(d.Payload))
		}
	}
}

func BenchmarkPipeThroughput(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			x, y := Pipe(nil)
			defer x.Close()
			defer y.Close()
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					if _, err := y.ReadMessage(); err != nil {
						b.Error(err)
						return
					}
				}
			}()
			for i := 0; i < b.N; i++ {
				if err := x.WriteMessage(&wire.Data{RequestID: uint32(i), Payload: payload}); err != nil {
					b.Fatal(err)
				}
			}
			<-done
		})
	}
}

// TestReadMessageAnswersPing: a Ping is answered inside the read that meets it
// and never returned; the read goes on to the next message.
func TestReadMessageAnswersPing(t *testing.T) {
	a, b := Pipe(nil)
	defer a.Close()
	defer b.Close()
	if err := a.WriteMessage(&wire.Ping{Nonce: 7}); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteMessage(&wire.LocateRequest{RequestID: 3}); err != nil {
		t.Fatal(err)
	}
	if m, err := b.ReadMessage(); err != nil {
		t.Fatal(err)
	} else if lr, ok := m.(*wire.LocateRequest); !ok || lr.RequestID != 3 {
		t.Fatalf("read %v, want the LocateRequest behind the Ping", m.Type())
	}
	if m, err := a.ReadMessage(); err != nil {
		t.Fatal(err)
	} else if p, ok := m.(*wire.Pong); !ok || p.Nonce != 7 {
		t.Fatalf("pinging side read %v, want Pong 7", m.Type())
	}
}
