package orb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// --- admission control ---

// blockingServer returns a server whose servant parks every dispatch until
// release is closed.
func blockingServer(t *testing.T, opts ServerOptions, key []byte) (*Server, string, chan struct{}) {
	t.Helper()
	srv, err := NewServerOpts("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	release := make(chan struct{})
	srv.Register(key, ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
		<-release
		out.WriteULong(1)
		return nil
	}))
	return srv, srv.Addr(), release
}

// TestAdmissionShedsWhenSaturated pins the load-shedding contract: with the
// in-flight cap and queue full, further requests are refused immediately with
// a TRANSIENT system exception — they do not queue without bound, and the
// admitted requests still complete once the servant unblocks.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const maxInFlight, queueDepth = 2, 1
	srv, addr, release := blockingServer(t, ServerOptions{
		MaxInFlight:     maxInFlight,
		QueueDepth:      queueDepth,
		MaxConnInFlight: -1, // isolate the global caps
	}, []byte("sat"))
	// Teardown order under the leak check (defers run LIFO, before the
	// blockingServer cleanup): unblock the servant, close the server, then
	// measure goroutines.
	defer srv.Close()
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()

	c := NewClient()
	c.Timeout = 10 * time.Second
	defer c.Close()

	const total = maxInFlight + queueDepth + 5
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		go func() {
			_, err := c.InvokeAddr(nil, addr, []byte("sat"), "work", NewArgEncoder().Bytes(), false)
			errs <- err
		}()
	}

	// The overflow (total - cap - queue) must shed promptly, well before the
	// servant releases anything.
	shed := 0
	deadline := time.After(5 * time.Second)
	for shed < total-maxInFlight-queueDepth {
		select {
		case err := <-errs:
			if !IsTransient(err) {
				t.Fatalf("saturated server returned %v, want TRANSIENT", err)
			}
			shed++
		case <-deadline:
			t.Fatalf("only %d requests shed; the rest are queued unbounded", shed)
		}
	}

	releaseOnce()
	for i := 0; i < maxInFlight+queueDepth; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("admitted request failed after release: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("admitted request never completed")
		}
	}

	st := srv.Stats()
	if st.Shed != uint64(total-maxInFlight-queueDepth) {
		t.Errorf("server shed %d, want %d", st.Shed, total-maxInFlight-queueDepth)
	}
	if st.Dispatched != uint64(maxInFlight+queueDepth) {
		t.Errorf("server dispatched %d, want %d", st.Dispatched, maxInFlight+queueDepth)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("gauges not drained: in flight %d, queued %d", st.InFlight, st.Queued)
	}
}

// TestPerConnectionCapSheds pins the per-connection fairness cap: one
// connection cannot hold more than MaxConnInFlight requests even when the
// global budget has room.
func TestPerConnectionCapSheds(t *testing.T) {
	defer testutil.LeakCheck(t)()
	srv, addr, release := blockingServer(t, ServerOptions{
		MaxInFlight:     64,
		MaxConnInFlight: 2,
		QueueDepth:      64,
	}, []byte("fair"))
	defer srv.Close()
	defer close(release)

	c := NewClient()
	c.Timeout = 10 * time.Second
	defer c.Close()

	const total = 6
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		go func() {
			_, err := c.InvokeAddr(nil, addr, []byte("fair"), "work", NewArgEncoder().Bytes(), false)
			errs <- err
		}()
	}
	for i := 0; i < total-2; i++ {
		select {
		case err := <-errs:
			if !IsTransient(err) {
				t.Fatalf("over-cap request returned %v, want TRANSIENT", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("over-cap requests not shed")
		}
	}
}

// --- liveness keepalives ---

// frozenListener accepts TCP connections and then ignores them completely —
// the in-process stand-in for a SIGKILL'd server: the socket stays open (the
// kernel buffers small writes) but nothing ever comes back.
func frozenListener(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	var mu sync.Mutex
	var held []net.Conn
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	return lis.Addr().String()
}

// TestClientKeepaliveDetectsFrozenServer is the dead-peer acceptance case:
// an invocation against a peer that went silent must fail via the keepalive
// within roughly twice the keepalive interval — not stall until the much
// larger invocation timeout.
func TestClientKeepaliveDetectsFrozenServer(t *testing.T) {
	addr := frozenListener(t)

	const interval = 50 * time.Millisecond
	c := NewClient()
	c.Timeout = 30 * time.Second // detection must not come from here
	c.Transport = &transport.Options{KeepaliveInterval: interval}
	defer c.Close()

	start := time.Now()
	_, err := c.InvokeAddr(nil, addr, []byte("k"), "work", NewArgEncoder().Bytes(), false)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("invocation against a frozen peer succeeded")
	}
	if !errors.Is(err, ErrConnBroken) {
		t.Fatalf("want a connection error, got %v", err)
	}
	if !strings.Contains(err.Error(), "keepalive") {
		t.Errorf("error not attributed to the keepalive: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("dead peer detected after %v, want ~2x the %v interval", elapsed, interval)
	}
}

// stallingStream passes its first write — the request — through, and blocks
// every later one until Close: a frozen stream, or a leg's writer holding the
// connection's write lock against a peer that stopped reading.
type stallingStream struct {
	io.ReadWriteCloser
	armed  atomic.Bool
	closed chan struct{}
	once   sync.Once
}

func (s *stallingStream) Write(p []byte) (int, error) {
	if s.armed.Load() {
		<-s.closed
		return 0, net.ErrClosed
	}
	defer s.armed.Store(true)
	return s.ReadWriteCloser.Write(p)
}

func (s *stallingStream) Close() error {
	s.once.Do(func() { close(s.closed) })
	return s.ReadWriteCloser.Close()
}

// TestKeepaliveVerdictDoesNotWaitOnABlockedWrite: the keepalive's Ping write
// blocks for good once the request is out. The verdict must still come from
// the keepalive, two intervals after the last read, and not from the much
// larger invocation timeout.
func TestKeepaliveVerdictDoesNotWaitOnABlockedWrite(t *testing.T) {
	addr := frozenListener(t)

	c := NewClient()
	c.Timeout = 30 * time.Second // detection must not come from here
	c.Transport = &transport.Options{
		KeepaliveInterval: 50 * time.Millisecond,
		Wrap: func(rw io.ReadWriteCloser) io.ReadWriteCloser {
			return &stallingStream{ReadWriteCloser: rw, closed: make(chan struct{})}
		},
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.InvokeAddr(nil, addr, []byte("k"), "work", NewArgEncoder().Bytes(), false)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnBroken) || !strings.Contains(err.Error(), "keepalive") {
			t.Fatalf("want a keepalive connection error, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no verdict within 2s: the blocked Ping write held the keepalive off")
	}
}

// TestServerKeepaliveDropsSilentClient covers the server side: a client that
// connects and then never speaks (and never answers pings) is dropped within
// the grace period and counted in the stats.
func TestServerKeepaliveDropsSilentClient(t *testing.T) {
	defer testutil.LeakCheck(t)()
	srv, err := NewServerOpts("127.0.0.1:0", ServerOptions{
		Transport: &transport.Options{KeepaliveInterval: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The server must close the connection on us: the read unblocks with an
	// error instead of hanging.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // dropped (or deadline, checked below)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for srv.Stats().KeepaliveDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never dropped the silent client")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- graceful drain ---

// TestShutdownDrainsInFlightAndShedsNew verifies the drain ordering: during
// Shutdown, new requests are shed with TRANSIENT while the in-flight request
// keeps its connection and delivers its reply; only then is CloseConnection
// sent and the connection torn down.
func TestShutdownDrainsInFlightAndShedsNew(t *testing.T) {
	defer testutil.LeakCheck(t)()
	srv, addr, release := blockingServer(t, ServerOptions{}, []byte("drain"))
	defer srv.Close()
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()

	c := NewClient()
	c.Timeout = 10 * time.Second
	defer c.Close()

	inflight := make(chan error, 1)
	go func() {
		_, err := c.InvokeAddr(nil, addr, []byte("drain"), "work", NewArgEncoder().Bytes(), false)
		inflight <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(ctx) }()

	// New traffic on the existing connection is shed while draining. Wait
	// for the drain to begin first: a request admitted before it would park
	// in the blocked servant until this test's own release.
	deadline = time.Now().Add(5 * time.Second)
	for !srv.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never began draining")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		_, err := c.InvokeAddr(nil, addr, []byte("drain"), "work", NewArgEncoder().Bytes(), false)
		if IsTransient(err) {
			break
		}
		if err != nil {
			t.Fatalf("during drain: %v, want TRANSIENT", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server kept accepting requests")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The in-flight request still completes successfully.
	releaseOnce()
	select {
	case err := <-inflight:
		if err != nil {
			t.Fatalf("in-flight request lost to the drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("drain did not finish cleanly: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never returned")
	}
}

// TestShutdownDeadlineAbandonsStuckDispatch pins the bounded-drain contract:
// a dispatch that never finishes cannot hold Shutdown past its context.
func TestShutdownDeadlineAbandonsStuckDispatch(t *testing.T) {
	defer testutil.LeakCheck(t)()
	srv, addr, release := blockingServer(t, ServerOptions{}, []byte("stuck"))
	// The abandoned dispatch drains only once the servant is released, so the
	// ordering is: release, then an unbounded Close, then the leak check.
	defer srv.Close()
	defer close(release)

	c := NewClient()
	c.Timeout = 10 * time.Second
	defer c.Close()
	go c.InvokeAddr(nil, addr, []byte("stuck"), "work", NewArgEncoder().Bytes(), false)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown over a stuck dispatch: %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v past a 200ms deadline", elapsed)
	}
}

// --- CloseConnection handling (proactive reconnect) ---

// TestCloseConnectionProactiveReconnect is the regression test for orderly
// server shutdown as seen by the client: on receiving CloseConnection the
// client marks the cached connection broken at once (no waiting for an I/O
// error) and transparently redials on the next use.
func TestCloseConnectionProactiveReconnect(t *testing.T) {
	key := []byte("hop")
	mkServer := func(addr, tag string) *Server {
		srv, err := NewServerOpts(addr, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srv.Register(key, ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
			out.WriteString(tag)
			return nil
		}))
		return srv
	}
	first := mkServer("127.0.0.1:0", "first")
	addr := first.Addr()

	c := NewClient()
	c.Timeout = 5 * time.Second
	defer c.Close()
	if _, err := c.InvokeAddr(nil, addr, key, "who", NewArgEncoder().Bytes(), false); err != nil {
		t.Fatalf("warm-up invoke: %v", err)
	}

	// Orderly shutdown announces CloseConnection; the client must evict the
	// cached connection without any further traffic.
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c.NumConns() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cached connection not evicted after CloseConnection")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A replacement server on the same address: the next use must redial and
	// succeed, not trip over a poisoned cache entry.
	second := mkServer(addr, "second")
	defer second.Close()
	out, err := c.InvokeAddr(nil, addr, key, "who", NewArgEncoder().Bytes(), false)
	if err != nil {
		t.Fatalf("invoke after reconnect: %v", err)
	}
	d, err := ArgDecoder(out)
	if err != nil {
		t.Fatal(err)
	}
	if tag, _ := d.ReadString(); tag != "second" {
		t.Fatalf("reply from %q, want the restarted server", tag)
	}
}

// --- multi-profile failover and circuit breaking ---

func echoServer(t *testing.T, addr, tag string, key []byte) *Server {
	t.Helper()
	srv, err := NewServerOpts(addr, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(key, ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
		out.WriteString(tag)
		return nil
	}))
	return srv
}

func invokeTag(t *testing.T, c *Client, ref IOR) (string, error) {
	t.Helper()
	out, err := c.Invoke(ref, "who", NewArgEncoder().Bytes(), false)
	if err != nil {
		return "", err
	}
	d, err := ArgDecoder(out)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := d.ReadString()
	if err != nil {
		t.Fatal(err)
	}
	return tag, nil
}

// TestFailoverAndHalfOpenRecovery drives the full circuit-breaker life
// cycle on a two-profile reference: primary serves → primary dies and the
// circuit opens after one failure → traffic fails over to the alternate →
// the primary returns and the half-open probe recovers it.
func TestFailoverAndHalfOpenRecovery(t *testing.T) {
	key := []byte("replicated")
	primary := echoServer(t, "127.0.0.1:0", "primary", key)
	secondary := echoServer(t, "127.0.0.1:0", "secondary", key)
	defer secondary.Close()
	primaryAddr := primary.Addr()

	ref := IOR{TypeID: "IDL:test/rep:1.0", Key: key, Threads: 1,
		Endpoints: []Endpoint{primary.Endpoint(0)}}
	ref.AddProfile([]Endpoint{secondary.Endpoint(0)})

	const cooldown = 100 * time.Millisecond
	c := NewClient()
	c.Timeout = 5 * time.Second
	c.Breaker = BreakerPolicy{Threshold: 1, Cooldown: cooldown}
	defer c.Close()

	if tag, err := invokeTag(t, c, ref); err != nil || tag != "primary" {
		t.Fatalf("with both replicas up: %q, %v", tag, err)
	}

	// Primary dies; the invocation fails over within the same call.
	primary.Close()
	if tag, err := invokeTag(t, c, ref); err != nil || tag != "secondary" {
		t.Fatalf("after primary death: %q, %v (want failover to secondary)", tag, err)
	}
	bk := c.breakerFor(primaryAddr)
	bk.mu.Lock()
	state := bk.state
	bk.mu.Unlock()
	if state != bkOpen {
		t.Fatalf("primary's circuit is %v after its failure, want open", state)
	}
	// While open, traffic routes straight to the secondary.
	if tag, err := invokeTag(t, c, ref); err != nil || tag != "secondary" {
		t.Fatalf("with circuit open: %q, %v", tag, err)
	}

	// Primary returns; after the cooldown a half-open probe readmits it.
	restarted := echoServer(t, primaryAddr, "primary", key)
	defer restarted.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(cooldown)
		tag, err := invokeTag(t, c, ref)
		if err != nil {
			t.Fatalf("during recovery: %v", err)
		}
		if tag == "primary" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("primary never recovered through the half-open probe")
		}
	}
	bk.mu.Lock()
	state = bk.state
	bk.mu.Unlock()
	if state != bkClosed {
		t.Fatalf("primary's circuit is %v after recovery, want closed", state)
	}
}

// TestAllEndpointsCircuitOpen pins the everything-down diagnosis: once every
// profile's circuit is open, an invocation reports ErrAllEndpointsDown
// instead of burning a dial timeout per call, whether the reference has one
// profile or a replica group's several.
func TestAllEndpointsCircuitOpen(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("profiles=%d", n), func(t *testing.T) {
			ref, servers := replicaRef(t, n)
			for _, srv := range servers {
				srv.Close()
			}
			c := NewClient()
			c.Timeout = 2 * time.Second
			c.Breaker = BreakerPolicy{Threshold: 1, Cooldown: time.Hour}
			defer c.Close()

			if _, err := invokeTag(t, c, ref); err == nil {
				t.Fatal("invocation against dead endpoints succeeded")
			}
			_, err := invokeTag(t, c, ref)
			if !errors.Is(err, ErrAllEndpointsDown) {
				t.Fatalf("with every circuit open: %v, want ErrAllEndpointsDown", err)
			}
		})
	}
}

// TestTransientFailsOverWithoutTrippingBreaker checks the error taxonomy: a
// TRANSIENT shed means the endpoint is alive, so the client fails over for
// this call but must not open the endpoint's circuit.
func TestTransientFailsOverWithoutTrippingBreaker(t *testing.T) {
	key := []byte("shedder")
	// A zero-capacity primary sheds everything; the secondary serves.
	primary, err := NewServerOpts("127.0.0.1:0", ServerOptions{
		MaxInFlight: 1, QueueDepth: -1, MaxConnInFlight: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	hold := make(chan struct{})
	defer close(hold)
	primary.Register(key, ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
		<-hold
		return nil
	}))
	secondary := echoServer(t, "127.0.0.1:0", "secondary", key)
	defer secondary.Close()

	ref := IOR{TypeID: "IDL:test/shed:1.0", Key: key, Threads: 1,
		Endpoints: []Endpoint{primary.Endpoint(0)}}
	ref.AddProfile([]Endpoint{secondary.Endpoint(0)})

	c := NewClient()
	c.Timeout = 5 * time.Second
	c.Breaker = BreakerPolicy{Threshold: 1, Cooldown: time.Hour}
	defer c.Close()

	// Saturate the primary's single slot so subsequent requests shed.
	go c.InvokeAddr(nil, primary.Addr(), key, "who", NewArgEncoder().Bytes(), false)
	deadline := time.Now().Add(5 * time.Second)
	for primary.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("saturating request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	tag, err := invokeTag(t, c, ref)
	if err != nil || tag != "secondary" {
		t.Fatalf("shed request did not fail over: %q, %v", tag, err)
	}
	bk := c.breakerFor(primary.Addr())
	bk.mu.Lock()
	state := bk.state
	bk.mu.Unlock()
	if state != bkClosed {
		t.Fatalf("TRANSIENT shed tripped the primary's circuit to %v", state)
	}
}
