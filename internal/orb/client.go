package orb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Client is the PARDIS client-side engine for one computing thread: it
// caches connections per endpoint, multiplexes concurrent requests over
// them, matches replies by request id, and routes inbound Data messages
// (multi-port return transfers) to registered sinks.
type Client struct {
	// Principal identifies this client in request headers (informational).
	Principal string
	// Timeout bounds each blocking invocation; zero means no bound.
	// Per-invocation deadlines (InvokeOptions.Deadline) tighten it further.
	Timeout time.Duration
	// Transport, when set, configures dialed connections (byte order,
	// frame limits, fault-injection wrappers).
	Transport *transport.Options
	// KeepaliveInterval, when positive, probes idle connections with Ping
	// and declares the peer dead after one more interval of silence. A
	// SIGKILL'd server then surfaces as a prompt connection error on every
	// pending request and data sink instead of a stall until the invocation
	// timeout.
	KeepaliveInterval time.Duration
	// Breaker is the per-endpoint circuit breaker policy used when invoking
	// through multi-profile references. The zero value disables breakers.
	Breaker BreakerPolicy
	// Shard configures consistent-hash routing for invocations that carry a
	// ShardKey (see InvokeOptions.ShardKey and InvokeSharded).
	Shard ShardPolicy
	// Metrics, when set before the client's first use, receives the
	// client-side resilience event counters: "orb.client.failovers" (profile
	// advances), "orb.client.breaker_open" (circuits tripping open), and
	// "orb.client.conn_broken" (connections poisoned). Nil disables them at
	// the cost of a nil check per event.
	Metrics *obs.Registry

	obsOnce       sync.Once
	mFailovers    *obs.Counter
	mBreakerOpen  *obs.Counter
	mConnBroken   *obs.Counter
	mShardReroute *obs.Counter
	mShardSpill   *obs.Counter

	nextID atomic.Uint32

	mu     sync.Mutex
	conns  map[string]*connSlot
	closed bool

	bkMu     sync.Mutex
	breakers map[string]*breaker

	sgMu    sync.Mutex
	sgCache map[string]*shardGroup

	sinkMu sync.Mutex
	sinks  map[sinkKey]dataSink
}

// sinkKey names one data sink: the request the transfers belong to and the
// client thread they are addressed to. Threads that share one client engine
// (and so one connection per endpoint) issue the same request id; the rank
// is what tells their return flows apart.
type sinkKey struct{ requestID, rank uint32 }

// dataSink is a registered sink and the reference whose endpoints feed it,
// which is what a lost connection is checked against.
type dataSink struct {
	ch  chan *wire.Data
	ref IOR
}

// NewClient returns a ready client engine.
func NewClient() *Client {
	return &Client{
		conns:    make(map[string]*connSlot),
		breakers: make(map[string]*breaker),
		sgCache:  make(map[string]*shardGroup),
		sinks:    make(map[sinkKey]dataSink),
	}
}

// connSlot serializes connection establishment per address. The client used
// to dial while holding the client-wide connection-map lock, which made one
// slow or unreachable endpoint stall every invocation on every other
// endpoint; with a slot per address, only callers of the same endpoint wait
// on its dial, and the map lock is held just long enough to find the slot.
type connSlot struct {
	mu sync.Mutex
	cc *clientConn // nil or broken: the next use redials
}

// InvokeOptions refine one invocation.
type InvokeOptions struct {
	// Oneway suppresses the reply; the call returns once the request is
	// written.
	Oneway bool
	// Deadline bounds this invocation; the zero time leaves Client.Timeout
	// alone in charge.
	Deadline time.Time
	// ShardKey, when non-nil, routes the invocation by consistent hash over
	// the reference's profiles — each profile one shard — instead of the
	// fixed primary-first failover order (see Route).
	ShardKey []byte
	// Idempotent declares the operation safe to re-execute: a sharded
	// invocation whose shard fails mid-flight then reroutes transparently to
	// the next ring successor. Without it, only provably-undispatched
	// failures (open circuit, failed probe, TRANSIENT shed) may move on.
	Idempotent bool
}

// retryable reports whether err indicates a broken or unreachable
// connection, the class of failure a fresh dial may fix (the breakers count
// it against the endpoint).
func retryable(err error) bool {
	if errors.Is(err, ErrConnBroken) || errors.Is(err, transport.ErrClosed) {
		return true
	}
	var se *SystemException
	return errors.As(err, &se) && se.RepoID == RepoComm
}

// clientConn is one cached connection with its reply demultiplexer.
type clientConn struct {
	conn     *transport.Conn
	client   *Client
	addr     string
	lastRead atomic.Int64 // unix nanos of the last inbound message
	mu       sync.Mutex
	pending  map[uint32]chan *wire.Reply
	err      error
	done     chan struct{}
}

func (cc *clientConn) touch() { cc.lastRead.Store(time.Now().UnixNano()) }

// Errors reported by the client engine.
var (
	ErrClientClosed  = errors.New("orb: client closed")
	ErrConnBroken    = errors.New("orb: connection broken")
	ErrInvokeTimeout = errors.New("orb: invocation timed out")
	// ErrAllEndpointsDown reports that every profile of a multi-profile
	// reference was skipped by an open circuit breaker.
	ErrAllEndpointsDown = errors.New("orb: all endpoints circuit-open")
)

// ErrClosedByPeer marks a connection the server shut down in an orderly way
// (CloseConnection). It wraps ErrConnBroken so existing retry/rebind logic
// treats it as a broken connection, while callers can still tell an orderly
// drain from a crash.
var ErrClosedByPeer = fmt.Errorf("%w: peer sent CloseConnection", ErrConnBroken)

// NextRequestID allocates a fresh request id, unique within this client.
func (c *Client) NextRequestID() uint32 {
	return c.nextID.Add(1)
}

// obsInit resolves the event counters from Metrics once. Counters stay nil
// (and their updates no-ops) when metrics are disabled.
func (c *Client) obsInit() {
	c.obsOnce.Do(func() {
		m := c.Metrics
		if m == nil {
			return
		}
		c.mFailovers = m.Counter("orb.client.failovers")
		c.mBreakerOpen = m.Counter("orb.client.breaker_open")
		c.mConnBroken = m.Counter("orb.client.conn_broken")
		c.mShardReroute = m.Counter("shard.reroute_total")
		c.mShardSpill = m.Counter("shard.spill_total")
	})
}

func (c *Client) countFailover()   { c.obsInit(); c.mFailovers.Inc() }
func (c *Client) countOpen()       { c.obsInit(); c.mBreakerOpen.Inc() }
func (c *Client) countConnBroken() { c.obsInit(); c.mConnBroken.Inc() }

// conn returns (dialing if necessary) the cached connection to addr.
func (c *Client) conn(addr string) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	slot := c.conns[addr]
	if slot == nil {
		slot = &connSlot{}
		c.conns[addr] = slot
	}
	c.mu.Unlock()

	slot.mu.Lock()
	defer slot.mu.Unlock()
	if cc := slot.cc; cc != nil {
		cc.mu.Lock()
		broken := cc.err != nil
		cc.mu.Unlock()
		if !broken {
			return cc, nil
		}
		slot.cc = nil
	}
	tc, err := transport.Dial(addr, c.Transport)
	if err != nil {
		return nil, &SystemException{RepoID: RepoComm, Message: err.Error()}
	}
	// Close may have run while we dialed (the dial holds only the slot
	// lock); publishing now would leak the connection past Close, so
	// re-check under the client lock before the connection becomes visible.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		tc.Close()
		return nil, ErrClientClosed
	}
	c.mu.Unlock()
	cc := &clientConn{
		conn:    tc,
		client:  c,
		addr:    addr,
		pending: make(map[uint32]chan *wire.Reply),
		done:    make(chan struct{}),
	}
	cc.touch()
	slot.cc = cc
	go cc.readLoop()
	if c.KeepaliveInterval > 0 {
		go cc.keepaliveLoop(c.KeepaliveInterval)
	}
	return cc, nil
}

// dropConn removes cc from the connection cache (if it is still the cached
// entry for its address), so the next use redials instead of tripping over
// the poisoned connection.
func (c *Client) dropConn(cc *clientConn) {
	c.mu.Lock()
	slot := c.conns[cc.addr]
	c.mu.Unlock()
	if slot == nil {
		return
	}
	slot.mu.Lock()
	if slot.cc == cc {
		slot.cc = nil
	}
	slot.mu.Unlock()
}

// NumConns reports how many live (unbroken) connections the client holds.
// Connection-sharing tests and the swarm harness assert fan-in shapes with
// it: N bindings sharing one client to one server must show exactly one.
func (c *Client) NumConns() int {
	c.mu.Lock()
	slots := make([]*connSlot, 0, len(c.conns))
	for _, slot := range c.conns {
		slots = append(slots, slot)
	}
	c.mu.Unlock()
	n := 0
	for _, slot := range slots {
		slot.mu.Lock()
		cc := slot.cc
		slot.mu.Unlock()
		if cc == nil {
			continue
		}
		cc.mu.Lock()
		if cc.err == nil {
			n++
		}
		cc.mu.Unlock()
	}
	return n
}

// keepaliveLoop mirrors the server's liveness probing from the client side:
// an idle connection is pinged, and a peer silent past the grace period is
// declared dead, failing every pending request and poisoning registered data
// sinks. This covers the multiport data connections too — a killed server
// rank is detected here instead of stalling transfers until the timeout.
func (cc *clientConn) keepaliveLoop(interval time.Duration) {
	tick := interval / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var nonce uint32
	var lastPing time.Time
	for {
		select {
		case <-cc.done:
			return
		case now := <-t.C:
			idle := now.Sub(time.Unix(0, cc.lastRead.Load()))
			if idle >= 2*interval {
				cc.fail(fmt.Errorf("%w: keepalive: peer silent for %v", ErrConnBroken, idle))
				return
			}
			if idle >= interval && now.Sub(lastPing) >= interval {
				lastPing = now
				nonce++
				if err := cc.conn.WriteMessage(&wire.Ping{Nonce: nonce}); err != nil {
					cc.fail(fmt.Errorf("%w: keepalive write: %v", ErrConnBroken, err))
					return
				}
			}
		}
	}
}

func (cc *clientConn) readLoop() {
	defer close(cc.done)
	for {
		msg, err := cc.conn.ReadMessage()
		if err != nil {
			// %w twice: callers match the broken connection, and a refused
			// protocol version (wire.ErrBadVersion) stays matchable under it.
			cc.fail(fmt.Errorf("%w: %w", ErrConnBroken, err))
			return
		}
		cc.touch()
		switch m := msg.(type) {
		case *wire.Reply:
			cc.deliver(m.RequestID, m)
		case *wire.Data:
			cc.client.routeData(m)
		case *wire.LocateReply:
			// The locate status rides the reply channel as a reply status.
			cc.deliver(m.RequestID, &wire.Reply{RequestID: m.RequestID, Status: wire.ReplyStatus(m.Status)})
		case *wire.Ping:
			if err := cc.conn.WriteMessage(&wire.Pong{Nonce: m.Nonce}); err != nil {
				cc.fail(fmt.Errorf("%w: pong write: %v", ErrConnBroken, err))
				return
			}
		case *wire.Pong:
			// Liveness evidence; touch above already recorded it.
		case *wire.CloseConnection:
			// Orderly server drain: mark the cached connection broken right
			// now so the next use redials, rather than learning via the
			// subsequent I/O error.
			cc.fail(ErrClosedByPeer)
			return
		case *wire.MessageError:
			cc.fail(fmt.Errorf("%w: peer reported message error", ErrConnBroken))
			return
		default:
			// Servers do not send other message types to clients.
			cc.fail(fmt.Errorf("%w: unexpected %v from server", ErrConnBroken, m.Type()))
			return
		}
	}
}

// fail poisons the connection, evicts it from the cache, unblocks every
// waiter, and poisons registered data sinks so multiport receivers abort
// promptly instead of waiting out their timeout.
func (cc *clientConn) fail(err error) {
	// Record the cause before closing the stream: closing wakes the read
	// loop with a generic I/O error, and the first recorded error is the one
	// waiters see — it must be the root cause (e.g. a keepalive verdict),
	// not the knock-on close.
	cc.mu.Lock()
	already := cc.err != nil
	if !already {
		cc.err = err
		// Before any waiter is released: a caller that learns of the failure
		// from its exchange and registers its next sink must not find this
		// connection's poison in it.
		cc.client.poisonSinks(cc.addr)
	}
	for id, ch := range cc.pending {
		delete(cc.pending, id)
		close(ch)
	}
	cc.mu.Unlock()
	cc.conn.Close()
	if !already {
		// A deliberate Close is not a broken connection; everything else is.
		if !errors.Is(err, ErrClientClosed) {
			cc.client.countConnBroken()
		}
		cc.client.dropConn(cc)
	}
}

// poisonSinks delivers a nil sentinel to every data sink the connection to
// addr could have fed — those registered for a reference with addr among its
// endpoints, in any profile — whose transfers may now be incomplete. Receivers
// treat the sentinel as a broken-connection error; a sink of another object
// sharing this client is none of the lost connection's business.
func (c *Client) poisonSinks(addr string) {
	host, port := SplitHostPort(addr)
	c.sinkMu.Lock()
	for _, s := range c.sinks {
		if !s.ref.hasEndpoint(host, port) {
			continue
		}
		select {
		case s.ch <- nil:
		default: // sink full; the receiver will fail on its own
		}
	}
	c.sinkMu.Unlock()
}

// replyChans pools the one-shot reply-waiter channels: every request/reply
// invocation needs a buffered channel for its demuxed reply, and at massive
// fan-in that is per-request session state worth recycling. A channel may
// only return to the pool when it is provably quiescent — the reply was
// received and consumed (the read loop deletes the pending entry before
// sending, so no later send can target it). Channels abandoned on timeout
// (a late reply may still land in the buffer) or closed by fail() are left
// for the GC.
var replyChans = sync.Pool{New: func() any { return make(chan *wire.Reply, 1) }}

func putReplyCh(ch chan *wire.Reply) { replyChans.Put(ch) }

// awaitTimers pools the timers that bound await: a stopped timer delivers
// nothing stale after its Reset (Go 1.23 timers).
var awaitTimers = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

func (cc *clientConn) register(id uint32) (chan *wire.Reply, error) {
	ch := replyChans.Get().(chan *wire.Reply)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		// The channel was never visible to the read loop; recycle it.
		putReplyCh(ch)
		return nil, cc.err
	}
	cc.pending[id] = ch
	return ch, nil
}

// deliver hands the reply of request id to its waiter, if it still has one.
func (cc *clientConn) deliver(id uint32, r *wire.Reply) {
	cc.mu.Lock()
	ch, ok := cc.pending[id]
	delete(cc.pending, id)
	cc.mu.Unlock()
	if ok {
		ch <- r
	}
}

func (cc *clientConn) unregister(id uint32) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// RegisterDataSink routes inbound Data messages for the given request id
// that are addressed to client thread rank (Data.DstRank) to ch, and poisons
// ch when a connection to one of ref's endpoints is lost. The caller must
// register before the request is sent and must UnregisterDataSink
// afterwards. The channel should be buffered for the expected number of
// transfers.
func (c *Client) RegisterDataSink(ref IOR, requestID, rank uint32, ch chan *wire.Data) {
	c.sinkMu.Lock()
	c.sinks[sinkKey{requestID, rank}] = dataSink{ch, ref}
	c.sinkMu.Unlock()
}

// UnregisterDataSink removes the sink of (requestID, rank).
func (c *Client) UnregisterDataSink(requestID, rank uint32) {
	c.sinkMu.Lock()
	delete(c.sinks, sinkKey{requestID, rank})
	c.sinkMu.Unlock()
}

func (c *Client) routeData(d *wire.Data) {
	c.sinkMu.Lock()
	s, ok := c.sinks[sinkKey{d.RequestID, d.DstRank}]
	c.sinkMu.Unlock()
	if ok {
		s.ch <- d
	} else {
		// No sink registered (late transfer for a finished request): the
		// message is dropped, so its borrowed frame buffer is returned here.
		d.Release()
	}
}

// InvokeAddr performs a request/reply exchange with the object key at an
// explicit endpoint address. It returns the reply's argument payload.
// Exceptional replies are returned as *UserException or *SystemException.
func (c *Client) InvokeAddr(addr string, key []byte, op string, args []byte, oneway bool) ([]byte, error) {
	return c.InvokeAddrOpts(addr, key, op, args, InvokeOptions{Oneway: oneway})
}

// InvokeAddrOpts is the fully-optioned invocation entry point.
func (c *Client) InvokeAddrOpts(addr string, key []byte, op string, args []byte, o InvokeOptions) ([]byte, error) {
	id := c.NextRequestID()
	req := &wire.Request{
		RequestID:        id,
		ResponseExpected: !o.Oneway,
		ObjectKey:        key,
		Operation:        op,
		Principal:        c.Principal,
		Args:             args,
	}
	if o.Oneway {
		cc, err := c.conn(addr)
		if err != nil {
			return nil, err
		}
		return nil, cc.write(req)
	}
	reply, err := c.exchange(addr, id, req, o.Deadline)
	if err != nil {
		return nil, err
	}
	if reply.Status != wire.ReplyNoException {
		return nil, decodeException(reply.Status, reply.Args)
	}
	return reply.Args, nil
}

// write sends m. A failed write leaves the stream unusable, so it poisons the
// connection and the next use redials — unless the message was refused for its
// size before a byte of it left.
func (cc *clientConn) write(m wire.Message) error {
	err := cc.conn.WriteMessage(m)
	if err == nil {
		return nil
	}
	if !errors.Is(err, transport.ErrTooLarge) {
		cc.fail(fmt.Errorf("%w: %v", ErrConnBroken, err))
	}
	return &SystemException{RepoID: RepoComm, Message: err.Error()}
}

// exchange is the one request/reply round trip: register the waiter for id on
// addr's connection, write m, await the reply within the deadline.
func (c *Client) exchange(addr string, id uint32, m wire.Message, deadline time.Time) (*wire.Reply, error) {
	cc, err := c.conn(addr)
	if err != nil {
		return nil, err
	}
	ch, err := cc.register(id)
	if err != nil {
		return nil, err
	}
	if err := cc.write(m); err != nil {
		cc.unregister(id)
		return nil, err
	}
	return c.await(cc, ch, id, deadline)
}

// awaitBound computes the effective wait for one reply: the tighter of the
// client-wide Timeout and the per-invocation deadline.
func (c *Client) awaitBound(deadline time.Time) (time.Duration, bool) {
	d := c.Timeout
	if !deadline.IsZero() {
		rem := time.Until(deadline)
		if rem <= 0 {
			return 0, false
		}
		if d <= 0 || rem < d {
			d = rem
		}
	}
	return d, true
}

func (c *Client) await(cc *clientConn, ch chan *wire.Reply, id uint32, deadline time.Time) (*wire.Reply, error) {
	bound, ok := c.awaitBound(deadline)
	if !ok {
		cc.unregister(id)
		return nil, fmt.Errorf("%w: request %d past deadline", ErrInvokeTimeout, id)
	}
	var timeout <-chan time.Time
	if bound > 0 {
		t := awaitTimers.Get().(*time.Timer)
		t.Reset(bound)
		defer awaitTimers.Put(t)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case reply, ok := <-ch:
		if !ok {
			cc.mu.Lock()
			err := cc.err
			cc.mu.Unlock()
			if err == nil {
				err = ErrConnBroken
			}
			return nil, err
		}
		// The reply was consumed and the read loop removed the pending entry
		// before sending it: the channel is empty and unreachable — recycle.
		putReplyCh(ch)
		return reply, nil
	case <-timeout:
		cc.unregister(id)
		return nil, fmt.Errorf("%w: request %d after %v", ErrInvokeTimeout, id, bound)
	}
}

// Invoke performs a request on the object, walking its profiles primary first.
func (c *Client) Invoke(ref IOR, op string, args []byte, oneway bool) ([]byte, error) {
	return c.InvokeOpts(ref, op, args, InvokeOptions{Oneway: oneway})
}

// DataConn returns the connection that carries Data messages to the endpoint
// serving ref's computing thread rank, dialing it if needed. A transfer leg
// resolves it once, so each of its chunks is a plain WriteMessage instead of
// an endpoint lookup and a locked connection-cache probe; a connection that
// breaks mid-leg fails the remaining writes rather than being redialed under
// a half-sent transfer.
func (c *Client) DataConn(ref IOR, rank int) (*transport.Conn, error) {
	ep, err := ref.EndpointFor(rank)
	if err != nil {
		return nil, err
	}
	cc, err := c.conn(ep.Addr())
	if err != nil {
		return nil, err
	}
	return cc.conn, nil
}

// SendData ships one multi-port argument transfer to the endpoint serving
// the destination computing thread.
func (c *Client) SendData(ref IOR, d *wire.Data) error {
	conn, err := c.DataConn(ref, int(d.DstRank))
	if err != nil {
		return err
	}
	return conn.WriteMessage(d)
}

// Locate asks the primary endpoint whether it serves ref's object key.
func (c *Client) Locate(ref IOR) (bool, error) {
	ep, err := ref.Primary()
	if err != nil {
		return false, err
	}
	return c.locate(ep.Addr(), ref.Key, time.Time{})
}

func (c *Client) locate(addr string, key []byte, deadline time.Time) (bool, error) {
	id := c.NextRequestID()
	reply, err := c.exchange(addr, id, &wire.LocateRequest{RequestID: id, ObjectKey: key}, deadline)
	if err != nil {
		return false, err
	}
	return wire.LocateStatus(reply.Status) == wire.LocateHere, nil
}

// Close tears down all cached connections.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	slots := make([]*connSlot, 0, len(c.conns))
	for _, slot := range c.conns {
		slots = append(slots, slot)
	}
	c.conns = map[string]*connSlot{}
	c.mu.Unlock()
	for _, slot := range slots {
		slot.mu.Lock()
		cc := slot.cc
		slot.cc = nil
		slot.mu.Unlock()
		if cc != nil {
			cc.fail(ErrClientClosed)
			<-cc.done
		}
	}
}
