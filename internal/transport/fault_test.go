package transport

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

// faultedPair wires two Conns over in-process buffers with the plan applied
// to the client side only; the server side stays clean so assertions about
// the peer's view are unambiguous.
func faultedPair(plan *FaultPlan) (client, server *Conn) {
	ab, ba := newPipeBuffer(), newPipeBuffer()
	client = NewConn(&pipeEnd{r: ba, w: ab}, &Options{Wrap: plan.Wrap})
	server = NewConn(&pipeEnd{r: ab, w: ba}, nil)
	return client, server
}

func TestFaultCutAfterWriteBytes(t *testing.T) {
	plan := NewFaultPlan(1)
	plan.CutAfterWriteBytes = wire.HeaderLen + 3 // mid-body of the first frame
	client, server := faultedPair(plan)
	defer client.Close()
	defer server.Close()

	err := client.WriteMessage(&wire.Request{RequestID: 1, Operation: "op", Args: []byte("abcdefgh")})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("writer: want ErrInjected, got %v", err)
	}
	// The peer sees the frame cut mid-body: a truncated frame or a closed
	// stream, never a clean message.
	if m, err := server.ReadMessage(); err == nil {
		t.Fatalf("peer read a message %#v across a cut stream", m)
	}
	// Further writes fail fast.
	if err := client.WriteMessage(&wire.LocateRequest{RequestID: 1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-cut write: want ErrInjected, got %v", err)
	}
}

func TestFaultCutAfterReadBytes(t *testing.T) {
	plan := NewFaultPlan(2)
	plan.CutAfterReadBytes = 5 // inside the frame header
	client, server := faultedPair(plan)
	defer client.Close()
	defer server.Close()

	if err := server.WriteMessage(&wire.Reply{RequestID: 7, Status: wire.ReplyNoException}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ReadMessage(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
}

func TestFaultDropSchedule(t *testing.T) {
	plan := NewFaultPlan(3)
	plan.DropEvery = 2 // every second flushed frame vanishes
	client, server := faultedPair(plan)
	defer client.Close()
	defer server.Close()

	// Three small messages are three flushes, i.e. three injector writes;
	// the second is swallowed. Dropping desynchronizes nothing here because
	// whole frames vanish (each flush is one complete frame).
	for id := uint32(1); id <= 3; id++ {
		if err := client.WriteMessage(&wire.Data{RequestID: id, Payload: []byte{byte(id)}}); err != nil {
			t.Fatalf("write %d: %v", id, err)
		}
	}
	for _, want := range []uint32{1, 3} {
		m, err := server.ReadMessage()
		if err != nil {
			t.Fatalf("reading message %d: %v", want, err)
		}
		d, ok := m.(*wire.Data)
		if !ok || d.RequestID != want {
			t.Fatalf("want Data %d, got %#v", want, m)
		}
	}
}

func TestFaultCorruptSchedule(t *testing.T) {
	plan := NewFaultPlan(4)
	plan.CorruptEvery = 1
	client, server := faultedPair(plan)
	defer server.Close()

	want := &wire.Data{RequestID: 9, Payload: bytes.Repeat([]byte{0x5a}, 64)}
	if err := client.WriteMessage(want); err != nil {
		t.Fatal(err)
	}
	// Close the writer so a size-field flip cannot leave the reader waiting
	// for bytes that will never come.
	client.Close()

	m, err := server.ReadMessage()
	if err != nil {
		return // the flip landed somewhere the decoder rejects — fine
	}
	if reflect.DeepEqual(m, want) {
		t.Fatal("corrupted frame arrived intact")
	}
}

func TestFaultDelaySchedule(t *testing.T) {
	plan := NewFaultPlan(5)
	plan.Delay = 40 * time.Millisecond
	plan.DelayEvery = 1
	client, server := faultedPair(plan)
	defer client.Close()
	defer server.Close()

	start := time.Now()
	if err := client.WriteMessage(&wire.Data{RequestID: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < plan.Delay {
		t.Fatalf("write returned in %v, want >= %v", elapsed, plan.Delay)
	}
	if _, err := server.ReadMessage(); err != nil {
		t.Fatalf("delayed message lost: %v", err)
	}
}

func TestFaultPlanConnBudget(t *testing.T) {
	plan := NewFaultPlan(6)
	plan.CutAfterWriteBytes = 1
	plan.FaultConns = 1

	// First stream gets the schedule, second passes through clean.
	faulted, server := faultedPair(plan)
	defer faulted.Close()
	defer server.Close()
	if err := faulted.WriteMessage(&wire.LocateRequest{RequestID: 1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("first conn: want ErrInjected, got %v", err)
	}

	ab, ba := newPipeBuffer(), newPipeBuffer()
	clean := NewConn(&pipeEnd{r: ba, w: ab}, &Options{Wrap: plan.Wrap})
	peer := NewConn(&pipeEnd{r: ab, w: ba}, nil)
	defer clean.Close()
	defer peer.Close()
	if err := clean.WriteMessage(&wire.LocateRequest{RequestID: 2}); err != nil {
		t.Fatalf("second conn should pass clean: %v", err)
	}
	if _, err := peer.ReadMessage(); err != nil {
		t.Fatalf("second conn peer: %v", err)
	}
	if got := plan.Wrapped(); got != 2 {
		t.Fatalf("Wrapped() = %d, want 2", got)
	}
}

func TestFaultInjectorCutAndStats(t *testing.T) {
	ab, ba := newPipeBuffer(), newPipeBuffer()
	inj := NewFaultInjector(&pipeEnd{r: ba, w: ab}, FaultPlan{}, 8)

	if n, err := inj.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatal(n, err)
	}
	ba.Write([]byte("yo"))
	buf := make([]byte, 8)
	if n, err := inj.Read(buf); n != 2 || err != nil {
		t.Fatal(n, err)
	}
	r, w := inj.Stats()
	if r != 2 || w != 5 {
		t.Fatalf("Stats() = (%d, %d), want (2, 5)", r, w)
	}

	inj.Cut()
	if _, err := inj.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after Cut: want ErrInjected, got %v", err)
	}
	if _, err := inj.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after Cut: want ErrInjected, got %v", err)
	}
	if err := inj.Close(); err != nil {
		t.Fatalf("close after Cut: %v", err)
	}
	// Cut closed the inner stream: the peer's next write fails.
	if _, err := ab.Write([]byte("z")); !errors.Is(err, ErrClosed) {
		t.Fatalf("inner stream should be closed, write got %v", err)
	}
}
