package orb

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// asPreviousVersion re-stamps a single-frame message as the previous protocol
// version: what a peer built before the version bump puts on the wire.
func asPreviousVersion(frame []byte) []byte {
	frame[4] = wire.Version - 1
	return frame
}

// TestVersionMismatchServerRefuses: a frame of another version reaches a
// server. The refusal is clean and named — the server logs ErrBadVersion,
// answers one MessageError in its own version and closes — and leaves no
// goroutine behind.
func TestVersionMismatchServerRefuses(t *testing.T) {
	defer testutil.LeakCheck(t)()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	var logged []string
	s.Logf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s.Register([]byte("k"), &echoServant{})

	conn, err := net.Dial("tcp", s.Endpoint(0).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := &wire.Request{RequestID: 1, ResponseExpected: true, ObjectKey: []byte("k"), Operation: "echo"}
	if _, err := conn.Write(asPreviousVersion(wire.Encode(req, cdr.NativeOrder))); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	answer, err := io.ReadAll(conn) // returns at the server's close
	if err != nil {
		t.Fatalf("server did not close the connection: %v", err)
	}
	h, err := wire.DecodeHeader(answer)
	if err != nil || h.Type != wire.MsgMessageError || len(answer) != wire.HeaderLen {
		t.Fatalf("answer % x (%+v, %v), want one MessageError frame", answer, h, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := fmt.Sprintf("%v: %d", wire.ErrBadVersion, wire.Version-1); len(logged) != 1 || !strings.Contains(logged[0], want) {
		t.Fatalf("server log %q, want one line naming %q", logged, want)
	}
}

// TestVersionMismatchClientFailsPendingInvoke: a reply of another version
// reaches a client. The pending invocation ends at once — not at its timeout
// — with one error that is both a broken connection and ErrBadVersion, names
// the version, and leaves no goroutine behind.
func TestVersionMismatchClientFailsPendingInvoke(t *testing.T) {
	defer testutil.LeakCheck(t)()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			conn, err := lis.Accept()
			if err != nil {
				return err
			}
			tc := transport.NewConn(conn, nil)
			defer tc.Close()
			m, err := tc.ReadMessage()
			if err != nil {
				return err
			}
			reply := &wire.Reply{RequestID: m.(*wire.Request).RequestID, Status: wire.ReplyNoException}
			if _, err := conn.Write(asPreviousVersion(wire.Encode(reply, cdr.NativeOrder))); err != nil {
				return err
			}
			if m, err := tc.ReadMessage(); err == nil { // until the client hangs up
				return fmt.Errorf("client kept talking: %v", m.Type())
			}
			return nil
		}()
	}()

	c := NewClient()
	c.Timeout = time.Minute // the refusal must not wait for this
	defer c.Close()
	start := time.Now()
	_, err = c.InvokeAddr(lis.Addr().String(), []byte("k"), "echo", nil, false)
	if !errors.Is(err, ErrConnBroken) || !errors.Is(err, wire.ErrBadVersion) || !strings.Contains(err.Error(), fmt.Sprintf("version: %d", wire.Version-1)) {
		t.Fatalf("invoke against a version-1 peer: %v, want a broken connection naming the version", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("refusal took %v", took)
	}
	if n := c.NumConns(); n != 0 {
		t.Fatalf("%d live connections after the refusal", n)
	}
	if err := <-served; err != nil {
		t.Fatalf("version-1 peer: %v", err)
	}
}
