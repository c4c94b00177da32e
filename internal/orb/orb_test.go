package orb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cdr"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// echoServant implements a few test operations.
type echoServant struct {
	mu      sync.Mutex
	oneways int
}

func (s *echoServant) Dispatch(op string, in *cdr.Decoder, out *cdr.Encoder) error {
	switch op {
	case "echo":
		msg, err := in.ReadString()
		if err != nil {
			return Marshal(err)
		}
		out.WriteString(msg)
		return nil
	case "add":
		a, err := in.ReadLong()
		if err != nil {
			return Marshal(err)
		}
		b, err := in.ReadLong()
		if err != nil {
			return Marshal(err)
		}
		out.WriteLong(a + b)
		return nil
	case "fail_user":
		return &UserException{RepoID: "IDL:test/Boom:1.0", Message: "user asked for it", Payload: []byte{1, 2}}
	case "fail_system":
		return &SystemException{RepoID: RepoInternal, Minor: 42, Message: "broken"}
	case "fail_generic":
		return errors.New("plain error")
	case "panic":
		panic("servant exploded")
	case "notify":
		s.mu.Lock()
		s.oneways++
		s.mu.Unlock()
		return nil
	case "slow":
		time.Sleep(200 * time.Millisecond)
		out.WriteLong(1)
		return nil
	default:
		return BadOperation(op)
	}
}

func newTestServer(t *testing.T) (*Server, IOR) {
	t.Helper()
	s, err := NewServerOpts("127.0.0.1:0", ServerOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	key := []byte("echo-object")
	s.Register(key, &echoServant{})
	ref := IOR{TypeID: "IDL:test/echo:1.0", Key: key, Threads: 1, Endpoints: []Endpoint{s.Endpoint(0)}}
	return s, ref
}

func newTestClient(t *testing.T) *Client {
	t.Helper()
	c := NewClient()
	c.Timeout = 10 * time.Second
	t.Cleanup(c.Close)
	return c
}

func encodeArgs(fn func(e *cdr.Encoder)) []byte {
	e := NewArgEncoder()
	fn(e)
	return e.Bytes()
}

func TestInvokeEcho(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)

	args := encodeArgs(func(e *cdr.Encoder) { e.WriteString("hello pardis") })
	replyArgs, err := c.Invoke(ref, "echo", args, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ArgDecoder(replyArgs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadString()
	if err != nil || got != "hello pardis" {
		t.Fatalf("echo returned %q, %v", got, err)
	}
}

// TestLargeCallIsOneFrameEachWay: a conventional call whose argument is four
// times the 256 KiB a PGIOP 8 writer cut bodies at travels as one Request
// frame and returns as one Reply frame, intact.
func TestLargeCallIsOneFrameEachWay(t *testing.T) {
	var mu sync.Mutex
	var read []wire.MsgType
	opts := &transport.Options{FrameHook: func(h wire.Header) {
		mu.Lock()
		read = append(read, h.Type)
		mu.Unlock()
	}}
	s, err := NewServerOpts("127.0.0.1:0", ServerOptions{Transport: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Register([]byte("k"), &echoServant{})
	c := newTestClient(t)
	c.Transport = opts

	msg := strings.Repeat("pardis", 1<<20/6)
	replyArgs, err := c.InvokeAddr(nil, s.Endpoint(0).Addr(), []byte("k"), "echo", encodeArgs(func(e *cdr.Encoder) { e.WriteString(msg) }), false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ArgDecoder(replyArgs)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d.ReadString(); err != nil || got != msg {
		t.Fatalf("echo returned %d bytes, %v; want the %d sent", len(got), err, len(msg))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(read) != 2 || read[0] != wire.MsgRequest || read[1] != wire.MsgReply {
		t.Fatalf("frames read %v, want one Request and one Reply", read)
	}
}

func TestInvokeAdd(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)
	args := encodeArgs(func(e *cdr.Encoder) { e.WriteLong(19); e.WriteLong(23) })
	replyArgs, err := c.Invoke(ref, "add", args, false)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := ArgDecoder(replyArgs)
	sum, err := d.ReadLong()
	if err != nil || sum != 42 {
		t.Fatalf("add = %d, %v", sum, err)
	}
}

func TestUserException(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)
	_, err := c.Invoke(ref, "fail_user", nil, false)
	var ue *UserException
	if !errors.As(err, &ue) {
		t.Fatalf("want UserException, got %v", err)
	}
	if ue.RepoID != "IDL:test/Boom:1.0" || ue.Message != "user asked for it" || len(ue.Payload) != 2 {
		t.Fatalf("exception %+v", ue)
	}
	if !strings.Contains(ue.Error(), "Boom") {
		t.Fatalf("error text %q", ue.Error())
	}
}

func TestSystemException(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)
	_, err := c.Invoke(ref, "fail_system", nil, false)
	var se *SystemException
	if !errors.As(err, &se) {
		t.Fatalf("want SystemException, got %v", err)
	}
	if se.Minor != 42 || se.RepoID != RepoInternal {
		t.Fatalf("exception %+v", se)
	}
}

func TestGenericErrorBecomesSystemException(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)
	_, err := c.Invoke(ref, "fail_generic", nil, false)
	var se *SystemException
	if !errors.As(err, &se) || !strings.Contains(se.Message, "plain error") {
		t.Fatalf("got %v", err)
	}
}

func TestServantPanicIsContained(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)
	_, err := c.Invoke(ref, "panic", nil, false)
	var se *SystemException
	if !errors.As(err, &se) || !strings.Contains(se.Message, "servant exploded") {
		t.Fatalf("got %v", err)
	}
	// The server must still be alive afterwards.
	args := encodeArgs(func(e *cdr.Encoder) { e.WriteString("still here") })
	if _, err := c.Invoke(ref, "echo", args, false); err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
}

func TestBadOperation(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)
	_, err := c.Invoke(ref, "no_such_op", nil, false)
	var se *SystemException
	if !errors.As(err, &se) || se.RepoID != RepoBadOperation {
		t.Fatalf("got %v", err)
	}
}

func TestObjectNotExist(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)
	ref.Key = []byte("missing")
	_, err := c.Invoke(ref, "echo", nil, false)
	var se *SystemException
	if !errors.As(err, &se) || se.RepoID != RepoObjectNotExist {
		t.Fatalf("got %v", err)
	}
}

func TestOnewayInvocation(t *testing.T) {
	srv, ref := newTestServer(t)
	c := newTestClient(t)
	sv := &echoServant{}
	srv.Register(ref.Key, sv)
	for i := 0; i < 5; i++ {
		if _, err := c.Invoke(ref, "notify", nil, true); err != nil {
			t.Fatal(err)
		}
	}
	// A blocking call afterwards flushes the pipeline (same connection, in
	// order), so all oneways have been dispatched... eventually: dispatches
	// run on their own goroutines, so poll briefly.
	args := encodeArgs(func(e *cdr.Encoder) { e.WriteString("sync") })
	if _, err := c.Invoke(ref, "echo", args, false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		sv.mu.Lock()
		n := sv.oneways
		sv.mu.Unlock()
		if n == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oneways dispatched: %d, want 5", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConcurrentInvocationsOneClient(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)
	var wg sync.WaitGroup
	errs := make([]error, 50)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			args := encodeArgs(func(e *cdr.Encoder) { e.WriteLong(int32(i)); e.WriteLong(1000) })
			replyArgs, err := c.Invoke(ref, "add", args, false)
			if err != nil {
				errs[i] = err
				return
			}
			d, _ := ArgDecoder(replyArgs)
			sum, err := d.ReadLong()
			if err != nil {
				errs[i] = err
				return
			}
			if sum != int32(i)+1000 {
				errs[i] = fmt.Errorf("request %d got reply %d (cross-matched)", i, sum)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSlowRequestsDoNotBlockOthers(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Invoke(ref, "slow", nil, false)
	}()
	time.Sleep(10 * time.Millisecond) // let slow land first
	args := encodeArgs(func(e *cdr.Encoder) { e.WriteString("fast") })
	if _, err := c.Invoke(ref, "echo", args, false); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("fast request waited %v behind slow one", elapsed)
	}
	<-done
}

func TestLocate(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)
	here, err := c.Locate(ref)
	if err != nil || !here {
		t.Fatalf("locate existing: %v %v", here, err)
	}
	missing := ref
	missing.Key = []byte("nope")
	here, err = c.Locate(missing)
	if err != nil || here {
		t.Fatalf("locate missing: %v %v", here, err)
	}
}

func TestInvokeTimeout(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)
	c.Timeout = 30 * time.Millisecond
	_, err := c.Invoke(ref, "slow", nil, false)
	if !errors.Is(err, ErrInvokeTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
}

func TestServerCloseUnblocksClient(t *testing.T) {
	srv, ref := newTestServer(t)
	c := newTestClient(t)
	c.Timeout = 0
	done := make(chan error, 1)
	go func() {
		_, err := c.Invoke(ref, "slow", nil, false)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	// Close drains in-flight dispatches, so the slow invocation completes
	// successfully rather than being cut off; the essential property is
	// that neither side hangs.
	select {
	case err := <-done:
		if err != nil {
			t.Logf("invocation during close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung after server close")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close hung")
	}
}

func TestDialFailure(t *testing.T) {
	c := newTestClient(t)
	ref := IOR{Key: []byte("k"), Threads: 1, Endpoints: []Endpoint{{Host: "127.0.0.1", Port: 1, Rank: 0}}}
	_, err := c.Invoke(ref, "echo", nil, false)
	var se *SystemException
	if !errors.As(err, &se) || se.RepoID != RepoComm {
		t.Fatalf("got %v", err)
	}
}

func TestClientClosedRejects(t *testing.T) {
	_, ref := newTestServer(t)
	c := NewClient()
	c.Close()
	if _, err := c.Invoke(ref, "echo", nil, false); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("got %v", err)
	}
	c.Close() // idempotent
}

func TestNilReference(t *testing.T) {
	c := newTestClient(t)
	if _, err := c.Invoke(IOR{}, "echo", nil, false); !errors.Is(err, ErrBadIOR) {
		t.Fatalf("got %v", err)
	}
}

func TestConnectionReuse(t *testing.T) {
	_, ref := newTestServer(t)
	c := newTestClient(t)
	for i := 0; i < 10; i++ {
		args := encodeArgs(func(e *cdr.Encoder) { e.WriteString("x") })
		if _, err := c.Invoke(ref, "echo", args, false); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n := len(c.conns)
	c.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d connections cached, want 1", n)
	}
}

func TestIORStringRoundTrip(t *testing.T) {
	ref := IOR{
		TypeID:  "IDL:diff_object:1.0",
		Key:     []byte{0, 1, 2, 0xFE},
		Threads: 4,
		Endpoints: []Endpoint{
			{Host: "10.0.0.1", Port: 9001, Rank: 0},
			{Host: "10.0.0.1", Port: 9002, Rank: 1},
			{Host: "10.0.0.2", Port: 9003, Rank: 2},
			{Host: "10.0.0.2", Port: 9004, Rank: 3},
		},
	}
	s := ref.String()
	if !strings.HasPrefix(s, "IOR:") {
		t.Fatalf("stringified form %q", s)
	}
	got, err := ParseIOR(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.TypeID != ref.TypeID || got.Threads != 4 || len(got.Endpoints) != 4 {
		t.Fatalf("parsed %+v", got)
	}
	for i, ep := range got.Endpoints {
		if ep != ref.Endpoints[i] {
			t.Fatalf("endpoint %d: %+v != %+v", i, ep, ref.Endpoints[i])
		}
	}
	if !got.Multiport() {
		t.Fatal("4-thread 4-endpoint reference not multiport")
	}
	if ep, err := got.EndpointFor(2); err != nil || ep.Port != 9003 {
		t.Fatalf("EndpointFor(2) = %+v, %v", ep, err)
	}
	if _, err := got.EndpointFor(9); err == nil {
		t.Fatal("EndpointFor(9) accepted")
	}
}

func TestIORNotMultiport(t *testing.T) {
	ref := IOR{Threads: 4, Endpoints: []Endpoint{{Host: "h", Port: 1, Rank: 0}}}
	if ref.Multiport() {
		t.Fatal("centralized reference claims multiport")
	}
	if (IOR{}).Multiport() {
		t.Fatal("nil reference claims multiport")
	}
}

func TestParseIORErrors(t *testing.T) {
	cases := []string{
		"",
		"ior:abcd",
		"IOR:zz",   // not hex
		"IOR:",     // empty
		"IOR:09",   // bad byte-order flag
		"IOR:00ff", // truncated body
	}
	for _, s := range cases {
		if _, err := ParseIOR(s); !errors.Is(err, ErrBadIOR) {
			t.Errorf("ParseIOR(%q) = %v", s, err)
		}
	}
}

func TestIORFuzzRoundTrip(t *testing.T) {
	prop := func(typeID string, key []byte, hosts []string) bool {
		if strings.ContainsRune(typeID, 0) {
			return true
		}
		ref := IOR{TypeID: typeID, Key: key, Threads: len(hosts)}
		for i, h := range hosts {
			if strings.ContainsRune(h, 0) {
				return true
			}
			ref.Endpoints = append(ref.Endpoints, Endpoint{Host: h, Port: i + 1, Rank: i})
		}
		got, err := ParseIOR(ref.String())
		if err != nil {
			return false
		}
		if got.TypeID != ref.TypeID || string(got.Key) != string(ref.Key) || len(got.Endpoints) != len(ref.Endpoints) {
			return false
		}
		for i := range got.Endpoints {
			if got.Endpoints[i] != ref.Endpoints[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDataRoutingServerAndClient(t *testing.T) {
	srv, ref := newTestServer(t)
	inbound := make(chan *wire.Data, 1)
	srv.SetDataHandler(func(d *wire.Data, conn *transport.Conn) {
		inbound <- d
		// Send a return transfer back over the same connection, as the
		// multi-port reply path does.
		if err := conn.WriteMessage(&wire.Data{RequestID: d.RequestID, Reply: true, Payload: []byte("pong")}); err != nil {
			t.Errorf("return transfer: %v", err)
		}
	})

	c := newTestClient(t)
	const reqID = 777
	sink := make(chan *wire.Data, 1)
	c.RegisterDataSink(ref, reqID, 0, sink)
	defer c.UnregisterDataSink(reqID, 0)

	conn, err := c.DataConn(ref.Endpoints[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(&wire.Data{RequestID: reqID, DstRank: 0, Payload: []byte("ping")}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-inbound:
		if string(d.Payload) != "ping" || d.RequestID != reqID {
			t.Fatalf("server saw %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server data handler never called")
	}
	select {
	case d := <-sink:
		if string(d.Payload) != "pong" || !d.Reply {
			t.Fatalf("client sink saw %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client data sink never called")
	}
}

// TestLostConnectionPoisonsOnlyItsSinks loses the connections of one client
// engine to two objects in turn. Losing A's leaves the sink registered for B
// empty — before, it was poisoned as well, and B's healthy call failed — and
// poisons a sink whose reference names A as an alternate profile; losing B's
// then poisons B's.
func TestLostConnectionPoisonsOnlyItsSinks(t *testing.T) {
	srvA, refA := newTestServer(t)
	srvB, refB := newTestServer(t)
	c := newTestClient(t)
	sinkB, sinkAlt := make(chan *wire.Data, 1), make(chan *wire.Data, 1)
	c.RegisterDataSink(refB, 1, 0, sinkB)
	defer c.UnregisterDataSink(1, 0)
	replicated := refB
	replicated.Alternates = [][]Endpoint{refA.Endpoints}
	c.RegisterDataSink(replicated, 2, 0, sinkAlt)
	defer c.UnregisterDataSink(2, 0)
	for _, ref := range []IOR{refA, refB} {
		if _, err := c.DataConn(ref.Endpoints[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}

	srvA.Close()
	testutil.Eventually(t, 5*time.Second, "the client never saw A's connection go", func() bool { return c.NumConns() == 1 })
	select {
	case d := <-sinkB:
		t.Fatalf("losing A's connection put %v in the sink of a call on B", d)
	default:
	}
	if d := <-sinkAlt; d != nil {
		t.Fatalf("the sink of a reference with A as a profile got %+v, want the poison", d)
	}

	srvB.Close()
	select {
	case d := <-sinkB:
		if d != nil {
			t.Fatalf("B's sink got %+v, want the poison", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("losing B's connection left B's sink unpoisoned")
	}
}

// frameOrders records the byte order of every inbound frame one side reads,
// through its Transport's FrameHook.
type frameOrders struct {
	mu    sync.Mutex
	seen  map[wire.MsgType]bool
	wrong []string
}

func (f *frameOrders) options() *transport.Options {
	f.seen = map[wire.MsgType]bool{}
	return &transport.Options{FrameHook: func(h wire.Header) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.seen[h.Type] = true
		if h.Order() != cdr.NativeOrder {
			f.wrong = append(f.wrong, fmt.Sprintf("%v in %v", h.Type, h.Order()))
		}
	}}
}

func (f *frameOrders) saw(types ...wire.MsgType) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ty := range types {
		if !f.seen[ty] {
			return false
		}
	}
	return true
}

// connServant answers a call by writing a Data frame and a Ping to the
// caller's connection ahead of the reply.
type connServant struct{}

func (connServant) Dispatch(string, *cdr.Decoder, *cdr.Encoder) error { return nil }

func (connServant) DispatchConn(conn *transport.Conn, _ string, _ *cdr.Decoder, _ *cdr.Encoder) (bool, error) {
	if err := conn.WriteMessage(&wire.Data{RequestID: 1, Payload: []byte{1, 2, 3}}); err != nil {
		return false, err
	}
	return false, conn.WriteMessage(&wire.Ping{Nonce: 1})
}

// TestEveryMessageWritesNativeOrder: a connection writes its native byte order
// whatever its options, so a server and a client that each set only a frame
// hook read Request, Reply, Data and Pong frames in native order on both
// sides.
func TestEveryMessageWritesNativeOrder(t *testing.T) {
	var server, client frameOrders
	srv, err := NewServerOpts("127.0.0.1:0", ServerOptions{Transport: server.options()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	key := []byte("order")
	srv.Register(key, connServant{})
	ref := IOR{TypeID: "IDL:test/order:1.0", Key: key, Threads: 1, Endpoints: []Endpoint{srv.Endpoint(0)}}
	c := NewClient()
	c.Timeout = 10 * time.Second
	c.Transport = client.options()
	defer c.Close()

	if _, err := c.Invoke(ref, "poke", NewArgEncoder().Bytes(), false); err != nil {
		t.Fatal(err)
	}
	cc, err := c.conn(srv.Endpoint(0).Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.conn.WriteMessage(&wire.Ping{Nonce: 2}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !server.saw(wire.MsgRequest, wire.MsgPong) || !client.saw(wire.MsgReply, wire.MsgData, wire.MsgPong); {
		if time.Now().After(deadline) {
			t.Fatalf("frames seen: server %v, client %v", server.seen, client.seen)
		}
		time.Sleep(time.Millisecond)
	}
	for side, f := range map[string]*frameOrders{"server": &server, "client": &client} {
		f.mu.Lock()
		if len(f.wrong) > 0 {
			t.Errorf("%s read frames not in native order (%v): %v", side, cdr.NativeOrder, f.wrong)
		}
		f.mu.Unlock()
	}
}
