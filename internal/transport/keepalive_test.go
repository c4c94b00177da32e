package transport

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/wire"
)

// keepalivePair returns a connection with keepalive interval ka and a peer
// without one, over the in-process pipe or over TCP, and the count of Pings
// the peer has read. The peer's ReadMessage answers a Ping and never returns
// it, so the count comes from its FrameHook.
func keepalivePair(t *testing.T, tcp bool, ka time.Duration) (a, b *Conn, pings *atomic.Int64) {
	t.Helper()
	opts := &Options{KeepaliveInterval: ka}
	pings = new(atomic.Int64)
	peer := &Options{FrameHook: func(h wire.Header) {
		if h.Type == wire.MsgPing {
			pings.Add(1)
		}
	}}
	if !tcp {
		a2b, b2a := newPipeBuffer(), newPipeBuffer()
		return NewConn(&pipeEnd{r: b2a, w: a2b}, opts), NewConn(&pipeEnd{r: a2b, w: b2a}, peer), pings
	}
	lis, err := Listen("127.0.0.1:0", peer)
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	if a, err = Dial(lis.Addr(), opts); err != nil {
		t.Fatal(err)
	}
	if b = <-accepted; b == nil {
		a.Close()
		t.Fatal("accept failed")
	}
	return a, b, pings
}

func forEachStream(t *testing.T, test func(t *testing.T, tcp bool)) {
	t.Run("pipe", func(t *testing.T) { test(t, false) })
	t.Run("tcp", func(t *testing.T) { test(t, true) })
}

// TestKeepaliveSilentPeer: a peer that neither reads nor answers is declared
// ErrPeerSilent two intervals after the last read, give or take one timer
// tick; reads and writes return the verdict from then on. The peer, reading
// at last, finds the one Ping it was probed with.
func TestKeepaliveSilentPeer(t *testing.T) {
	forEachStream(t, func(t *testing.T, tcp bool) {
		const interval, tick = 100 * time.Millisecond, 50 * time.Millisecond
		start := time.Now()
		a, b, pings := keepalivePair(t, tcp, interval)
		defer b.Close()
		defer a.Close()

		_, err := a.ReadMessage()
		elapsed := time.Since(start)
		if !errors.Is(err, ErrPeerSilent) || !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "keepalive") {
			t.Fatalf("read on a silent peer: %v, want ErrPeerSilent", err)
		}
		if elapsed < 2*interval || elapsed > 2*interval+tick {
			t.Errorf("verdict after %v, want 2 intervals (%v) plus at most one tick (%v)", elapsed, 2*interval, tick)
		}
		if _, err := a.ReadMessage(); !errors.Is(err, ErrPeerSilent) {
			t.Errorf("second read: %v, want ErrPeerSilent", err)
		}
		if err := a.WriteMessage(&wire.Ping{Nonce: 1}); !errors.Is(err, ErrPeerSilent) {
			t.Errorf("write after the verdict: %v, want ErrPeerSilent", err)
		}
		// The Ping is answered into a closed connection, and the read ends.
		if m, err := b.ReadMessage(); err == nil {
			t.Fatalf("peer read %v from a closed connection", m.Type())
		}
		if n := pings.Load(); n != 1 {
			t.Fatalf("peer read %d Pings, want the one probe", n)
		}
	})
}

// TestKeepaliveAnsweredPeerStaysUp: a peer that keeps reading answers every
// Ping inside its ReadMessage, which keeps the connection up for ten intervals
// with no traffic besides the probes.
func TestKeepaliveAnsweredPeerStaysUp(t *testing.T) {
	forEachStream(t, func(t *testing.T, tcp bool) {
		const interval = 50 * time.Millisecond
		a, b, _ := keepalivePair(t, tcp, interval)
		defer b.Close()
		defer a.Close()
		go func() {
			for {
				if _, err := b.ReadMessage(); err != nil {
					return
				}
			}
		}()
		var pongs atomic.Int64
		readErr := make(chan error, 1)
		go func() {
			for {
				m, err := a.ReadMessage()
				if err != nil {
					readErr <- err
					return
				}
				if _, ok := m.(*wire.Pong); ok {
					pongs.Add(1)
				}
			}
		}()

		select {
		case err := <-readErr:
			t.Fatalf("connection to an answering peer failed: %v", err)
		case <-time.After(10 * interval):
		}
		if err := a.WriteMessage(&wire.Ping{}); err != nil {
			t.Fatalf("write after 10 intervals: %v", err)
		}
		if n := pongs.Load(); n < 3 {
			t.Errorf("%d Pongs in 10 intervals, want the peer probed every interval of silence", n)
		}
	})
}

// TestKeepaliveStopsAtClose: Close stops the keepalive's timer, so a closed
// connection never probes again and leaves no goroutine behind.
func TestKeepaliveStopsAtClose(t *testing.T) {
	forEachStream(t, func(t *testing.T, tcp bool) {
		defer testutil.LeakCheck(t)()
		const interval = 20 * time.Millisecond
		a, b, pings := keepalivePair(t, tcp, interval)
		defer b.Close()
		readErr := make(chan error, 1)
		go func() {
			for {
				if _, err := b.ReadMessage(); err != nil {
					readErr <- err
					return
				}
			}
		}()
		for pings.Load() == 0 {
			select {
			case err := <-readErr:
				t.Fatalf("peer read: %v, want a probe", err)
			case <-time.After(time.Millisecond):
			}
		}
		a.Close()
		if a.probe.Stop() {
			t.Error("keepalive timer still armed after Close")
		}
		time.Sleep(3 * interval)
		if n := pings.Load(); n != 1 {
			t.Fatalf("peer read %d Pings, want no probe after Close", n)
		}
		// The peer's read ends: on TCP the Pong it answered with may still sit
		// unread at the closed end, which then resets rather than closes.
		if err := <-readErr; err == nil {
			t.Fatal("peer read after Close succeeded")
		}
	})
}
