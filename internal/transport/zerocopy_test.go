package transport

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cdr"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// tcpPair returns two connected TCP Conns, so tests exercise the vectored
// (writev) Data path, which the in-process pipe deliberately does not take.
func tcpPair(t *testing.T, opts *Options) (client, server *Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	client, err = Dial(l.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func echoData(t *testing.T, from, to *Conn, want *wire.Data) *wire.Data {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- from.WriteMessage(want) }()
	m, err := to.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	d, ok := m.(*wire.Data)
	if !ok {
		t.Fatalf("got %#v", m)
	}
	return d
}

// TestVectoredDataTCP drives the Data write paths over a real socket: an empty
// payload and one below vectoredMinTail through the buffered writer, one at
// it and one of many socket buffers through the gathered write.
func TestVectoredDataTCP(t *testing.T) {
	cases := []struct {
		name    string
		payload int
	}{
		{"empty", 0},
		{"single-frame", 1 << 10},
		{"vectored", vectoredMinTail},
		{"large", 4 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.LeakCheck(t)()
			defer testutil.BalanceCheck(t, "frame pool", PoolOutstanding)()
			a, b := tcpPair(t, nil)
			payload := make([]byte, tc.payload)
			rand.New(rand.NewSource(int64(tc.payload))).Read(payload)
			want := &wire.Data{
				RequestID: 77, ArgIndex: 1, SrcRank: 2, DstRank: 3,
				DstOff: 40, Count: uint64(tc.payload), Reply: true, Payload: payload,
			}
			got := echoData(t, a, b, want)
			if got.RequestID != want.RequestID || got.DstOff != want.DstOff ||
				got.Count != want.Count || !got.Reply || !bytes.Equal(got.Payload, payload) {
				t.Fatalf("vectored Data corrupted: %+v", got)
			}
			// Always legal, whether or not a pooled buffer backs the payload.
			got.Release()
		})
	}
}

// TestVectoredDataBigEndianTCP checks the vectored path against a big-endian
// stream, covering the cross-order header/prefix encoding.
func TestVectoredDataBigEndianTCP(t *testing.T) {
	defer testutil.LeakCheck(t)()
	defer testutil.BalanceCheck(t, "frame pool", PoolOutstanding)()
	a, b := tcpPair(t, nil)
	a.order, b.order = cdr.BigEndian, cdr.BigEndian
	payload := bytes.Repeat([]byte{0xA5}, 8<<10)
	got := echoData(t, a, b, &wire.Data{RequestID: 5, Count: 1 << 10, Payload: payload})
	if got.RequestID != 5 || got.Count != 1<<10 || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("big-endian vectored Data corrupted: %+v", got)
	}
	got.Release()
}

// TestVectoredFrameOracle captures the exact bytes the vectored path puts on
// the wire and checks them against wire.Encode, the format oracle — the
// gathered write must be indistinguishable from the staged encoding.
func TestVectoredFrameOracle(t *testing.T) {
	var sink bytes.Buffer
	c := NewConn(nopCloser{&sink}, nil)
	// Force the vectored branch even though the sink is not a TCP conn:
	// net.Buffers degrades to sequential writes, which still must produce
	// the same byte stream.
	c.vectored = true
	d := &wire.Data{
		RequestID: 3, ArgIndex: 2, SrcRank: 1, DstRank: 0,
		DstOff: 16, Count: vectoredMinTail / 8, Payload: bytes.Repeat([]byte{0x42}, vectoredMinTail),
	}
	if err := c.WriteMessage(d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), wire.Encode(d, cdr.NativeOrder)) {
		t.Fatal("vectored frame bytes differ from wire.Encode")
	}
}

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

// TestDataEchoAllocs is the transport-level allocation-regression guard: a
// loopback Data echo with pooled frames, reused scratch encoders, and
// Release must stay at a small constant number of allocations per message
// (the Data/decoder headers and goroutine plumbing — not buffers).
func TestDataEchoAllocs(t *testing.T) {
	defer testutil.LeakCheck(t)()
	defer testutil.BalanceCheck(t, "frame pool", PoolOutstanding)()
	a, b := Pipe(nil)
	defer a.Close()
	defer b.Close()
	payload := make([]byte, 64<<10)
	msg := &wire.Data{RequestID: 1, Count: uint64(len(payload) / 8), Payload: payload}

	errs := make(chan error, 1)
	run := func() {
		go func() { errs <- a.WriteMessage(msg) }()
		m, err := b.ReadMessage()
		if err != nil {
			t.Error(err)
			return
		}
		if err := <-errs; err != nil {
			t.Error(err)
			return
		}
		m.(*wire.Data).Release()
	}
	run() // warm the pools and scratch buffers
	allocs := testing.AllocsPerRun(50, run)
	// The steady state allocates only the writer goroutine with its closure:
	// the 64 KiB frame comes from the pool and the struct it is decoded into
	// from the recycled ones, and both go back without a hook (the read side
	// alone is TestDataReadRecycles).
	if allocs > 3 {
		t.Fatalf("Data echo allocates %.0f times per message, want <= 3", allocs)
	}
}

// TestDataReadRecycles pins what a streamed chunk costs the connection that
// receives it: nothing. The frame is rented and the struct it is decoded into
// recycled, both given back by Release, so once the pools are warm reading a
// Data message and releasing it allocates no object. Under wire.GuardReleases
// a released struct stays out of circulation, which makes the two ways to break
// the loan — releasing twice, asking a released message whether it is a chunk —
// panic every time instead of corrupting whoever reads the struct's next frame.
func TestDataReadRecycles(t *testing.T) {
	defer testutil.BalanceCheck(t, "frame pool", PoolOutstanding)()
	a, b := Pipe(nil)
	defer a.Close()
	defer b.Close()
	const runs = 100
	msg := &wire.Data{RequestID: 1, Count: 8 << 10, Flags: wire.DataFlagChunk, Payload: make([]byte, 64<<10)}
	// The pipe buffers without bound: every frame is written before any is read.
	for i := 0; i < runs+3; i++ {
		if err := a.WriteMessage(msg); err != nil {
			t.Fatal(err)
		}
	}
	read := func() *wire.Data {
		m, err := b.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		return m.(*wire.Data)
	}
	read().Release() // warm the pools
	if allocs := testing.AllocsPerRun(runs, func() { read().Release() }); allocs != 0 {
		t.Fatalf("reading and releasing a Data frame allocates %.2f objects, want 0", allocs)
	}

	wire.GuardReleases(true)
	defer wire.GuardReleases(false)
	d := read()
	if !d.Chunked() || len(d.Payload) != 64<<10 {
		t.Fatalf("read %+v", d)
	}
	d.Release()
	for name, use := range map[string]func(){"second Release": d.Release, "Chunked after Release": func() { d.Chunked() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			use()
		}()
	}
}
