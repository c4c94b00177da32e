package transport

import (
	"sync"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/wire"
)

// frameLog collects inbound frame headers via Options.FrameHook.
type frameLog struct {
	mu     sync.Mutex
	frames []wire.Header
}

func (l *frameLog) hook(h wire.Header) {
	l.mu.Lock()
	l.frames = append(l.frames, h)
	l.mu.Unlock()
}

func (l *frameLog) snapshot() []wire.Header {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]wire.Header(nil), l.frames...)
}

// tracePipe builds a pipe whose writer stamps trace-context extensions and
// whose reader logs every frame header.
func tracePipe(t *testing.T, log *frameLog) (w, r *Conn) {
	t.Helper()
	// Pipe shares one Options for both ends; build the ends separately so
	// only the writer stamps and only the reader hooks.
	a2b := newPipeBuffer()
	b2a := newPipeBuffer()
	w = NewConn(&pipeEnd{r: b2a, w: a2b}, &Options{TraceHeaders: true, FragmentThreshold: 64})
	r = NewConn(&pipeEnd{r: a2b, w: b2a}, &Options{FrameHook: log.hook, FragmentThreshold: 64})
	return w, r
}

func TestTraceHeadersStampEveryFrame(t *testing.T) {
	var log frameLog
	w, r := tracePipe(t, &log)
	defer w.Close()
	defer r.Close()

	// A small Request: one frame.
	req := &wire.Request{RequestID: 71, ResponseExpected: true, ObjectKey: []byte("k"), Operation: "op"}
	if err := w.WriteMessage(req); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if got.(*wire.Request).RequestID != 71 {
		t.Fatalf("request corrupted: %+v", got)
	}

	// A Data message big enough to fragment: every frame, Fragments
	// included, must carry the same trace id.
	payload := make([]byte, 300)
	d := &wire.Data{RequestID: 72, Count: uint64(len(payload)), Payload: payload}
	if err := w.WriteMessage(d); err != nil {
		t.Fatal(err)
	}
	dm, err := r.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	rd := dm.(*wire.Data)
	if rd.RequestID != 72 || len(rd.Payload) != len(payload) {
		t.Fatalf("data corrupted: id=%d len=%d", rd.RequestID, len(rd.Payload))
	}
	rd.Release()

	frames := log.snapshot()
	if len(frames) < 3 {
		t.Fatalf("expected request + fragmented data frames, saw %d", len(frames))
	}
	if !frames[0].HasTrace() || frames[0].Trace != 71 {
		t.Fatalf("request frame trace = %+v, want 71", frames[0])
	}
	sawFragment := false
	for _, h := range frames[1:] {
		if !h.HasTrace() || h.Trace != 72 {
			t.Fatalf("data frame lost its trace: %+v", h)
		}
		if h.Type == wire.MsgFragment {
			sawFragment = true
		}
	}
	if !sawFragment {
		t.Fatal("payload did not fragment; threshold misconfigured")
	}
}

func TestUntracedPeerInteroperates(t *testing.T) {
	// The writer does not stamp trace context (TraceHeaders off); the reader
	// hooks frames.
	var log frameLog
	a2b := newPipeBuffer()
	b2a := newPipeBuffer()
	w := NewConn(&pipeEnd{r: b2a, w: a2b}, nil)
	r := NewConn(&pipeEnd{r: a2b, w: b2a}, &Options{FrameHook: log.hook})
	defer w.Close()
	defer r.Close()

	if err := w.WriteMessage(&wire.Reply{RequestID: 9, Status: wire.ReplyNoException}); err != nil {
		t.Fatal(err)
	}
	m, err := r.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if m.(*wire.Reply).RequestID != 9 {
		t.Fatalf("reply corrupted: %+v", m)
	}
	frames := log.snapshot()
	if len(frames) != 1 || frames[0].HasTrace() || frames[0].Trace != 0 {
		t.Fatalf("untraced frame grew a trace: %+v", frames)
	}
}

func TestTracedMessagesWithoutRequestIDCarryZero(t *testing.T) {
	var log frameLog
	w, r := tracePipe(t, &log)
	defer w.Close()
	defer r.Close()
	if err := w.WriteMessage(&wire.Ping{Nonce: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	frames := log.snapshot()
	if len(frames) != 1 || !frames[0].HasTrace() || frames[0].Trace != 0 {
		t.Fatalf("ping frame = %+v, want trace ext with 0", frames)
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
