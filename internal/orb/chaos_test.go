package orb

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/transport"
)

func chaosServer(t *testing.T, key []byte) (*Server, IOR) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Register(key, ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
		out.WriteString(op)
		return nil
	}))
	ref := IOR{
		TypeID:    "IDL:test/chaos:1.0",
		Key:       key,
		Threads:   1,
		Endpoints: []Endpoint{srv.Endpoint(0)},
	}
	return srv, ref
}

// TestLocateWithoutRetriesFailsOnDisconnect: the client never re-sends on its
// own, so a connection that dies on its first write fails the Locate — with a
// COMM_FAILURE, and with the connection poisoned, so that the caller's next
// use dials a fresh one and succeeds.
func TestLocateWithoutRetriesFailsOnDisconnect(t *testing.T) {
	_, ref := chaosServer(t, []byte("locate-me"))

	plan := transport.NewFaultPlan(11)
	plan.CutAfterWriteBytes = 1 // the first connection dies on its first write
	plan.FaultConns = 1         // redials get a clean stream

	c := NewClient()
	c.Timeout = 5 * time.Second
	c.Transport = &transport.Options{Wrap: plan.Wrap}
	defer c.Close()

	if _, err := c.Locate(ref); !retryable(err) {
		t.Fatalf("locate through the cut: %v, want a connection failure", err)
	}
	if found, err := c.Locate(ref); err != nil || !found {
		t.Fatalf("locate after the cut: %v, %v", found, err)
	}
	if n := plan.Wrapped(); n != 2 {
		t.Errorf("saw %d connection(s), want the cut one and one redial", n)
	}
}

// TestConnFailureFansOutToAllWaiters kills a connection carrying several
// pending requests and checks every waiter gets a connection error — not
// ErrInvokeTimeout, and not a hang.
func TestConnFailureFansOutToAllWaiters(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	block := make(chan struct{})
	defer close(block)
	key := []byte("tarpit")
	srv.Register(key, ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
		<-block // never replies while the test runs
		return nil
	}))
	ref := IOR{TypeID: "IDL:test/tarpit:1.0", Key: key, Threads: 1, Endpoints: []Endpoint{srv.Endpoint(0)}}

	var mu sync.Mutex
	var injs []*transport.FaultInjector
	c := NewClient()
	// A long deadline: the waiters must be released by the connection
	// failure, not rescued by the invocation timeout.
	c.Timeout = 30 * time.Second
	c.Transport = &transport.Options{Wrap: func(rw io.ReadWriteCloser) io.ReadWriteCloser {
		f := transport.NewFaultInjector(rw, transport.FaultPlan{}, 1)
		mu.Lock()
		injs = append(injs, f)
		mu.Unlock()
		return f
	}}
	defer c.Close()

	const waiters = 6
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := c.Invoke(ref, "poke", NewArgEncoder().Bytes(), false)
			errs <- err
		}()
	}
	// Let the requests land in the pending table and on the wire; they all
	// share the one cached connection.
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	for _, f := range injs {
		f.Cut()
	}
	mu.Unlock()

	deadline := time.After(10 * time.Second)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("waiter succeeded after its connection was cut")
			}
			if errors.Is(err, ErrInvokeTimeout) {
				t.Errorf("waiter saw the timeout, want a connection error: %v", err)
			}
		case <-deadline:
			t.Fatalf("%d of %d waiters still blocked after connection cut", waiters-i, waiters)
		}
	}
}

// TestClientTimeoutBoundsSlowServer checks the one bound on a call: a servant
// slower than Client.Timeout fails the call at the timeout, not when the
// servant is done.
func TestClientTimeoutBoundsSlowServer(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	release := make(chan struct{})
	defer close(release)
	key := []byte("slow")
	srv.Register(key, ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
		<-release
		return nil
	}))
	ref := IOR{TypeID: "IDL:test/slow:1.0", Key: key, Threads: 1, Endpoints: []Endpoint{srv.Endpoint(0)}}

	c := NewClient()
	c.Timeout = 300 * time.Millisecond
	defer c.Close()

	start := time.Now()
	_, err = c.Invoke(ref, "poke", NewArgEncoder().Bytes(), false)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("timeout-bounded call succeeded against a stalled servant")
	}
	if !errors.Is(err, ErrInvokeTimeout) {
		t.Fatalf("want %v, got %v", ErrInvokeTimeout, err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timeout enforced after %v, want ~300ms", elapsed)
	}
}
