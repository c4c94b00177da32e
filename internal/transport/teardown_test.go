package transport

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestAcceptAfterClose(t *testing.T) {
	l, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("Accept succeeded on a closed listener")
	}
}

func TestDoubleConnClose(t *testing.T) {
	a, b := Pipe(nil)
	defer b.Close()
	if err := a.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestPipeBufferReadAfterClose(t *testing.T) {
	pb := newPipeBuffer()
	if _, err := pb.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	pb.close()
	// Buffered bytes drain first...
	buf := make([]byte, 16)
	n, err := pb.Read(buf)
	if n != 4 || err != nil || string(buf[:4]) != "tail" {
		t.Fatalf("drain: n=%d err=%v buf=%q", n, err, buf[:n])
	}
	// ...then EOF, and writes are refused.
	if _, err := pb.Read(buf); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if _, err := pb.Write([]byte("more")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: want ErrClosed, got %v", err)
	}
}

func TestBlockedReadUnblockedByClose(t *testing.T) {
	a, b := Pipe(nil)
	defer b.Close()

	errs := make(chan error, 1)
	go func() {
		_, err := a.ReadMessage()
		errs <- err
	}()
	// Give the reader time to block on the empty pipe, then close under it.
	time.Sleep(50 * time.Millisecond)
	a.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked ReadMessage not released by Close")
	}
}

// TestPerConnMaxFrameSize checks the limit is a property of each Conn: a
// writer with default limits can emit a frame that a size-limited reader
// must reject before allocating the body.
func TestPerConnMaxFrameSize(t *testing.T) {
	ab, ba := newPipeBuffer(), newPipeBuffer()
	writer := NewConn(&pipeEnd{r: ba, w: ab}, nil)
	reader := NewConn(&pipeEnd{r: ab, w: ba}, nil)
	reader.max = 64
	defer writer.Close()
	defer reader.Close()

	if err := writer.WriteMessage(&wire.Data{RequestID: 1, Payload: make([]byte, 128)}); err != nil {
		t.Fatalf("unlimited writer refused a small message: %v", err)
	}
	if _, err := reader.ReadMessage(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("limited reader: want ErrTooLarge, got %v", err)
	}
	// The limited side also refuses to send oversize bodies.
	if err := reader.WriteMessage(&wire.Data{RequestID: 2, Payload: make([]byte, 128)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("limited writer: want ErrTooLarge, got %v", err)
	}
}
