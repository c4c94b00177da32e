package orb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Servant is the server-side upcall interface: the object adapter hands a
// decoded request to the servant, which reads its arguments from in and
// writes its results to out. Returning a *UserException or *SystemException
// produces the corresponding exceptional reply; any other error becomes an
// INTERNAL system exception. Generated skeletons implement Servant by
// switching on op and delegating to the user's implementation object,
// mirroring the CORBA C++ inheritance mapping the paper uses (§2.1).
type Servant interface {
	Dispatch(op string, in *cdr.Decoder, out *cdr.Encoder) error
}

// ServantFunc adapts a function to the Servant interface.
type ServantFunc func(op string, in *cdr.Decoder, out *cdr.Encoder) error

// Dispatch implements Servant.
func (f ServantFunc) Dispatch(op string, in *cdr.Decoder, out *cdr.Encoder) error {
	return f(op, in, out)
}

// ConnServant is a Servant that is also told which connection its request
// arrived on — the one the Reply will be written to, so what the servant writes
// there first (the Data chunks of a streamed result) reaches the client ahead
// of it. The adapter calls DispatchConn in place of Dispatch.
type ConnServant interface {
	Servant
	DispatchConn(conn *transport.Conn, op string, in *cdr.Decoder, out *cdr.Encoder) error
}

// DataHandler consumes PARDIS Data messages (multi-port argument
// transfers). The connection is provided so the handler can send return
// transfers back over the same connection.
type DataHandler func(d *wire.Data, conn *transport.Conn)

// Defaults for ServerOptions.
const (
	DefaultMaxInFlight       = 1024
	DefaultMaxConnInFlight   = 128
	DefaultQueueDepth        = 256
	DefaultWriteTimeout      = 10 * time.Second
	DefaultKeepaliveInterval = 30 * time.Second
	DefaultWorkerIdleTimeout = time.Second
)

// ServerOptions configure a Server's robustness layer: admission control,
// slow-client write deadlines, and liveness keepalives. The zero value means
// "use the defaults"; negative durations disable the corresponding feature.
type ServerOptions struct {
	// MaxInFlight caps requests being dispatched concurrently across all
	// connections. It also bounds the dispatch worker pool: the server never
	// runs more worker goroutines than requests it would admit concurrently.
	// Default DefaultMaxInFlight; negative disables the cap.
	MaxInFlight int
	// MaxConnInFlight caps requests in flight (dispatching or queued) on one
	// connection, so a single aggressive client cannot monopolize the global
	// budget. With many cheap client bindings multiplexed onto one shared
	// connection (core.BindOptions.ShareConnection), the cap applies to their
	// aggregate. Default DefaultMaxConnInFlight; negative disables the cap.
	MaxConnInFlight int
	// QueueDepth bounds how many admitted requests may wait for an
	// in-flight slot once MaxInFlight is saturated. A request arriving with
	// the queue full is shed immediately with a TRANSIENT system exception —
	// the server never queues without bound. Default DefaultQueueDepth;
	// negative disables queueing (saturation sheds at once).
	QueueDepth int
	// WorkerIdleTimeout is how long an idle dispatch worker goroutine
	// lingers before it is reaped, so the pool shrinks back after a load
	// spike instead of pinning peak-sized goroutine counts forever. Default
	// DefaultWorkerIdleTimeout; negative keeps idle workers alive until
	// shutdown.
	WorkerIdleTimeout time.Duration
	// WriteTimeout bounds every reply/keepalive write so one client that
	// stopped reading cannot wedge the connection's writers. Default
	// DefaultWriteTimeout; negative disables.
	WriteTimeout time.Duration
	// KeepaliveInterval is how long a connection may stay silent before the
	// server probes it with a Ping; a peer silent for one more interval after
	// the probe is declared dead and the connection closed. Default
	// DefaultKeepaliveInterval; negative disables keepalives.
	KeepaliveInterval time.Duration
	// Transport configures accepted connections (byte order, frame limits,
	// fault-injection wrappers). WriteTimeout above is layered on top.
	Transport *transport.Options
	// Logf receives connection-level error reports; nil is silent.
	Logf func(format string, args ...any)
	// Metrics, when set, receives this server's observability wiring: the
	// admission/liveness counters from Stats and the process-wide transport
	// frame-pool counters become pull sources, servant dispatch latency
	// feeds the "orb.server.handle_ns" histogram, and full server-side
	// request latency (arrival to reply written, queue wait included) feeds
	// "orb.server.dispatch_ns". Collection is pull-based, so the request
	// path pays nothing beyond the counters it already kept plus one clock
	// read per request.
	Metrics *obs.Registry
	// MetricsAddr, when non-empty, serves Metrics (a registry the server
	// makes for itself when Metrics is nil) as JSON over HTTP on this address;
	// the endpoint lives until Shutdown. MetricsEndpoint returns the bound
	// address.
	MetricsAddr string
	// Trace, when set, records server-side invocation spans (admission
	// waits, keyed by request id) into this ring buffer.
	Trace *obs.Recorder
	// AdminResize exposes the reserved "_pardis_resize" administrative
	// operation on SPMD objects exported by an elastic engine (see
	// core.NewElastic): a client invocation of it triggers a membership
	// resize of the serving group. Off by default — resizing is a
	// control-plane action, so it must be opted into explicitly.
	AdminResize bool
}

func (o ServerOptions) withDefaults() ServerOptions {
	switch {
	case o.MaxInFlight == 0:
		o.MaxInFlight = DefaultMaxInFlight
	case o.MaxInFlight < 0:
		o.MaxInFlight = 1 << 30
	}
	switch {
	case o.MaxConnInFlight == 0:
		o.MaxConnInFlight = DefaultMaxConnInFlight
	case o.MaxConnInFlight < 0:
		o.MaxConnInFlight = 1 << 30
	}
	switch {
	case o.QueueDepth == 0:
		o.QueueDepth = DefaultQueueDepth
	case o.QueueDepth < 0:
		o.QueueDepth = 0
	}
	switch {
	case o.WorkerIdleTimeout == 0:
		o.WorkerIdleTimeout = DefaultWorkerIdleTimeout
	case o.WorkerIdleTimeout < 0:
		o.WorkerIdleTimeout = 0 // never reap
	}
	switch {
	case o.WriteTimeout == 0:
		o.WriteTimeout = DefaultWriteTimeout
	case o.WriteTimeout < 0:
		o.WriteTimeout = 0
	}
	switch {
	case o.KeepaliveInterval == 0:
		o.KeepaliveInterval = DefaultKeepaliveInterval
	case o.KeepaliveInterval < 0:
		o.KeepaliveInterval = 0
	}
	return o
}

// ServerStats is a snapshot of the server's admission-control and liveness
// counters.
type ServerStats struct {
	// Dispatched counts requests handed to a servant.
	Dispatched uint64
	// Shed counts requests refused with TRANSIENT (caps hit or draining).
	Shed uint64
	// KeepaliveDrops counts connections closed because the peer stayed
	// silent past the keepalive grace period.
	KeepaliveDrops uint64
	// InFlight and Queued are the current gauges.
	InFlight int
	Queued   int
	// Conns is the current number of accepted connections being served.
	Conns int
	// Workers is the current size of the dispatch worker pool (busy + idle).
	Workers int
}

// Server is the PARDIS object adapter plus its network engine: it listens on
// one endpoint, registers servants under object keys, and dispatches inbound
// requests. An SPMD object runs one Server per computing thread in the
// multi-port configuration, or only on the communicating thread in the
// centralized configuration.
//
// The robustness layer (ServerOptions) bounds everything the network can do
// to it: concurrent dispatches are capped globally and per connection with a
// bounded overflow queue (excess is shed with TRANSIENT), writes carry
// deadlines so a stuck reader cannot wedge a connection, and idle peers are
// pinged and dropped when silent too long.
//
// The engine is sized for massive fan-in (DESIGN.md §13): goroutines are
// O(connections + concurrent dispatches), never O(requests). Each accepted
// connection costs exactly one serve-loop goroutine; admitted requests are
// executed by a shared pool of reusable dispatch workers that grows on
// demand up to MaxInFlight and shrinks after WorkerIdleTimeout; queued
// requests hold a queue slot, not a goroutine; and a single scanner
// goroutine runs keepalive probing for every connection.
type Server struct {
	lis  *transport.Listener
	host string
	opts ServerOptions

	mu       sync.Mutex
	servants map[string]Servant
	dataH    DataHandler
	connLost func(*transport.Conn)
	conns    map[*servedConn]struct{}
	closed   bool

	// stop is closed when the server begins shutting down; idle workers and
	// the scanner/reaper loops give up on it.
	stop chan struct{}
	// draining sheds all new requests with TRANSIENT once Shutdown begins.
	draining atomic.Bool

	// Dispatch engine (all under dmu): ready is the LIFO stack of parked
	// workers, workers counts live worker goroutines (busy + idle), queue
	// holds admitted requests waiting for a worker (bounded by QueueDepth),
	// and stopped marks the engine torn down. The queue-check-then-park
	// ordering in workerLoop and the handoff in dispatch are serialized by
	// dmu, which is what makes a queued item impossible to strand: a worker
	// only parks after observing an empty queue, and an item only queues
	// after observing no parked workers.
	dmu     sync.Mutex
	ready   []*dispatchWorker
	workers int
	queue   []workItem
	stopped bool

	queued   atomic.Int64
	inflight atomic.Int64

	dispatched     atomic.Uint64
	shed           atomic.Uint64
	keepaliveDrops atomic.Uint64

	// Observability wiring (ServerOptions.Metrics/Trace): rec records
	// admission spans, handleNS times servant dispatches, dispatchNS times
	// arrival-to-reply request latency, msrv is the optional HTTP endpoint,
	// pullKey identifies this server's pull source for unregistration at
	// shutdown.
	rec        *obs.Recorder
	metrics    *obs.Registry
	handleNS   *obs.Histogram
	dispatchNS *obs.Histogram
	msrv       *obs.MetricsServer
	pullKey    string

	// wg tracks connection serve loops, the keepalive scanner, the worker
	// reaper and the accept loop; reqWg tracks admitted requests
	// (dispatching or queued) so Shutdown can let replies drain before
	// tearing connections down. workerWg tracks the dispatch worker
	// goroutines separately: a clean shutdown waits for them, but a
	// deadline-expired drain abandons a stuck worker exactly as it abandons
	// the stuck dispatch it is running.
	wg       sync.WaitGroup
	reqWg    sync.WaitGroup
	workerWg sync.WaitGroup
	// Logf, when set, receives connection-level error reports. It defaults
	// to a silent logger; tests install t.Logf.
	Logf func(format string, args ...any)
}

// servedConn is one accepted connection with its liveness and admission
// state.
type servedConn struct {
	conn *transport.Conn
	// inflight counts this connection's requests dispatching or queued.
	inflight atomic.Int64
	// lastRead is the unix-nano time of the last successful read; the
	// keepalive scanner measures idleness against it.
	lastRead atomic.Int64
	// lastPing and nonce belong to the keepalive scanner goroutine alone.
	lastPing time.Time
	nonce    uint32
}

func (sc *servedConn) touch() { sc.lastRead.Store(time.Now().UnixNano()) }

func (sc *servedConn) idle(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, sc.lastRead.Load()))
}

// workItem is one admitted request en route to a dispatch worker.
type workItem struct {
	sc  *servedConn
	req *wire.Request
	// arrival is the unix-nano admission stamp for spans and the dispatch
	// latency histogram; 0 when neither is enabled.
	arrival int64
}

// dispatchWorker is one pooled dispatcher goroutine. Its channel has
// capacity 1 so a handoff from admit never blocks: a worker is on the ready
// stack only while its channel is empty, and popping it is what grants the
// right to send exactly one item (or, for the reaper, to close the channel).
type dispatchWorker struct {
	ch       chan workItem
	parkedAt int64 // unix-nano park stamp, read by the reaper under dmu
}

// NewServer listens on addr ("host:port", port 0 for ephemeral) with default
// options and starts accepting connections.
func NewServer(addr string) (*Server, error) {
	return NewServerOpts(addr, ServerOptions{})
}

// NewServerOpts is NewServer with explicit robustness options.
func NewServerOpts(addr string, opts ServerOptions) (*Server, error) {
	opts = opts.withDefaults()
	// Accepted connections inherit the caller's transport configuration
	// plus the server's write deadline.
	topts := transport.Options{}
	if opts.Transport != nil {
		topts = *opts.Transport
	}
	if topts.WriteTimeout == 0 {
		topts.WriteTimeout = opts.WriteTimeout
	}
	lis, err := transport.Listen(addr, &topts)
	if err != nil {
		return nil, err
	}
	s := &Server{
		lis:      lis,
		opts:     opts,
		servants: make(map[string]Servant),
		conns:    make(map[*servedConn]struct{}),
		stop:     make(chan struct{}),
		Logf:     func(string, ...any) {},
	}
	if opts.Logf != nil {
		s.Logf = opts.Logf
	}
	s.rec = opts.Trace
	reg := opts.Metrics
	if reg == nil && opts.MetricsAddr != "" {
		reg = obs.NewRegistry()
	}
	if reg != nil {
		s.metrics = reg
		s.handleNS = reg.Histogram("orb.server.handle_ns")
		s.dispatchNS = reg.Histogram("orb.server.dispatch_ns")
		// Pulls are read at snapshot time only. Several servers (the
		// per-thread adapters of one SPMD object) sharing a registry each
		// register under their own address, and the snapshot sums their
		// stats per name; the frame pool is process-wide, so its fixed key
		// makes the registration idempotent across servers.
		s.pullKey = "orb.server/" + lis.Addr()
		reg.RegisterPull(s.pullKey, func(put func(string, int64)) {
			st := s.Stats()
			put("orb.server.dispatched", int64(st.Dispatched))
			put("orb.server.shed", int64(st.Shed))
			put("orb.server.keepalive_drops", int64(st.KeepaliveDrops))
			put("orb.server.in_flight", int64(st.InFlight))
			put("orb.server.queued", int64(st.Queued))
			put("orb.server.conns", int64(st.Conns))
			put("orb.server.workers", int64(st.Workers))
		})
		reg.RegisterPull("transport.pool", pullPoolStats)
		if opts.MetricsAddr != "" {
			ms, err := obs.Serve(opts.MetricsAddr, reg)
			if err != nil {
				lis.Close()
				return nil, err
			}
			s.msrv = ms
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if opts.WorkerIdleTimeout > 0 {
		s.wg.Add(1)
		go s.reaperLoop()
	}
	if opts.KeepaliveInterval > 0 {
		s.wg.Add(1)
		go s.keepaliveScanner()
	}
	return s, nil
}

// pullPoolStats surfaces the transport frame-pool counters to a registry.
func pullPoolStats(put func(string, int64)) {
	st := transport.PoolStats()
	put("transport.pool.hits", int64(st.Hits))
	put("transport.pool.misses", int64(st.Misses))
	put("transport.pool.puts", int64(st.Returns))
	put("transport.pool.outstanding", st.Outstanding())
}

// MetricsEndpoint returns the bound address of the metrics HTTP endpoint,
// or "" when ServerOptions.MetricsAddr was not set.
func (s *Server) MetricsEndpoint() string {
	if s.msrv == nil {
		return ""
	}
	return s.msrv.Addr()
}

// arrivalStamp reads the clock once per request when either spans or the
// dispatch latency histogram want it; 0 otherwise so untraced, unmetered
// servers skip the clock read.
func (s *Server) arrivalStamp() int64 {
	if s.rec == nil && s.dispatchNS == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// span records one server-side phase keyed by the request id.
func (s *Server) span(ph obs.Phase, requestID uint32, start int64) {
	if s.rec == nil || start == 0 {
		return
	}
	s.rec.Record(obs.Span{
		Trace: uint64(requestID),
		Phase: ph,
		Start: start,
		Dur:   time.Now().UnixNano() - start,
	})
}

// Endpoint returns the server's reachable endpoint, labelled with the given
// computing-thread rank.
func (s *Server) Endpoint(rank int) Endpoint {
	host, port := SplitHostPort(s.lis.Addr())
	return Endpoint{Host: host, Port: port, Rank: rank}
}

// Register installs a servant under key. Registering an existing key
// replaces the previous servant (re-registration after restart).
func (s *Server) Register(key []byte, sv Servant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.servants[string(key)] = sv
}

// SetDataHandler installs the consumer for multi-port Data messages.
func (s *Server) SetDataHandler(h DataHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dataH = h
}

// SetConnLostHandler installs a hook called once per connection after its
// serve loop ends, however it ended (peer close, keepalive drop, shutdown).
// The multi-port engine uses it to fail invocations whose data connection
// died instead of letting them wait out the data timeout.
func (s *Server) SetConnLostHandler(h func(*transport.Conn)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.connLost = h
}

func (s *Server) lookup(key []byte) (Servant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv, ok := s.servants[string(key)]
	return sv, ok
}

func (s *Server) dataHandler() DataHandler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dataH
}

// Stats returns a snapshot of the admission-control and liveness counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	nconns := len(s.conns)
	s.mu.Unlock()
	s.dmu.Lock()
	nworkers := s.workers
	s.dmu.Unlock()
	return ServerStats{
		Dispatched:     s.dispatched.Load(),
		Shed:           s.shed.Load(),
		KeepaliveDrops: s.keepaliveDrops.Load(),
		InFlight:       int(s.inflight.Load()),
		Queued:         int(s.queued.Load()),
		Conns:          nconns,
		Workers:        nworkers,
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		sc := &servedConn{conn: conn}
		sc.touch()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(sc)
	}
}

// keepaliveScanner is the server-wide liveness prober: one goroutine walks
// every connection on a shared tick, probing idle peers with a Ping and
// dropping those silent past the grace period. Before the fan-in refactor
// each connection ran its own keepalive goroutine; at thousands of
// connections that doubled the goroutine bill for a loop that is almost
// always asleep. Ping writes ride the server's write deadline, so one wedged
// peer can stall a scan pass by at most WriteTimeout; dead-peer drops are
// plain Close calls and never block. This is what turns a SIGKILL'd peer (no
// FIN on the wire) into a prompt error instead of an indefinite stall.
func (s *Server) keepaliveScanner() {
	defer s.wg.Done()
	interval := s.opts.KeepaliveInterval
	tick := interval / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var scratch []*servedConn
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			scratch = scratch[:0]
			s.mu.Lock()
			for sc := range s.conns {
				scratch = append(scratch, sc)
			}
			s.mu.Unlock()
			for _, sc := range scratch {
				idle := sc.idle(now)
				if idle >= 2*interval {
					s.keepaliveDrops.Add(1)
					s.Logf("orb: server keepalive: peer silent %v, dropping connection", idle)
					sc.conn.Close() // the serve loop observes the close and exits
					continue
				}
				if idle >= interval && now.Sub(sc.lastPing) >= interval {
					sc.lastPing = now
					sc.nonce++
					if err := sc.conn.WriteMessage(&wire.Ping{Nonce: sc.nonce}); err != nil {
						continue // the serve loop will observe the broken stream
					}
				}
			}
			// Don't let a burst of connections pin a huge scratch array.
			if cap(scratch) > 4096 && len(s.conns) < 1024 {
				scratch = nil
			}
		}
	}
}

func (s *Server) serveConn(sc *servedConn) {
	defer s.wg.Done()
	defer func() {
		sc.conn.Close()
		s.mu.Lock()
		delete(s.conns, sc)
		lost := s.connLost
		s.mu.Unlock()
		if lost != nil {
			lost(sc.conn)
		}
	}()
	for {
		msg, err := sc.conn.ReadMessage()
		if err != nil {
			if !errors.Is(err, transport.ErrClosed) {
				s.Logf("orb: server read: %v", err)
				// Tell the peer its stream was unintelligible, then drop it.
				_ = sc.conn.WriteMessage(&wire.MessageError{})
			}
			return
		}
		sc.touch()
		switch m := msg.(type) {
		case *wire.Request:
			s.admit(sc, m)
		case *wire.LocateRequest:
			st := wire.LocateUnknown
			if _, ok := s.lookup(m.ObjectKey); ok {
				st = wire.LocateHere
			}
			if err := sc.conn.WriteMessage(&wire.LocateReply{RequestID: m.RequestID, Status: st}); err != nil {
				s.Logf("orb: locate reply: %v", err)
				return
			}
		case *wire.Ping:
			if err := sc.conn.WriteMessage(&wire.Pong{Nonce: m.Nonce}); err != nil {
				s.Logf("orb: pong: %v", err)
				return
			}
		case *wire.Pong:
			// Liveness evidence; touch above already recorded it.
		case *wire.Data:
			if h := s.dataHandler(); h != nil {
				h(m, sc.conn)
			} else {
				s.Logf("orb: Data message with no handler (request %d)", m.RequestID)
				m.Release()
				_ = sc.conn.WriteMessage(&wire.MessageError{})
			}
		case *wire.CloseConnection:
			return
		case *wire.MessageError:
			s.Logf("orb: peer reported message error")
			return
		default:
			_ = sc.conn.WriteMessage(&wire.MessageError{})
			return
		}
	}
}

// admit applies admission control to one inbound request: shed while
// draining, shed past the per-connection cap, hand to the dispatch engine
// when it has room (an idle worker, a worker slot to grow into, or a bounded
// queue slot) — and shed when all three are exhausted. Shedding replies
// TRANSIENT at once; the request is never silently queued without bound, and
// admission itself never blocks the connection's serve loop.
func (s *Server) admit(sc *servedConn, req *wire.Request) {
	arrival := s.arrivalStamp()
	if s.draining.Load() {
		s.shedRequest(sc, req, "server draining")
		return
	}
	if n := sc.inflight.Add(1); n > int64(s.opts.MaxConnInFlight) {
		sc.inflight.Add(-1)
		s.shedRequest(sc, req, fmt.Sprintf("connection request cap %d reached", s.opts.MaxConnInFlight))
		return
	}
	if ok, reason := s.dispatch(workItem{sc: sc, req: req, arrival: arrival}); !ok {
		sc.inflight.Add(-1)
		s.shedRequest(sc, req, reason)
	}
}

// dispatch routes one admitted item into the worker pool: direct handoff to
// a parked worker, a fresh worker while the pool is below MaxInFlight, or a
// bounded queue slot. It reports false (with the shed reason) when the
// engine is saturated or stopped.
func (s *Server) dispatch(it workItem) (bool, string) {
	s.dmu.Lock()
	if s.stopped {
		s.dmu.Unlock()
		return false, "server draining"
	}
	// Counted under dmu and after the stopped check, so every Add is ordered
	// before Shutdown sets stopped — and so before its reqWg.Wait.
	s.reqWg.Add(1)
	if n := len(s.ready); n > 0 {
		w := s.ready[n-1]
		s.ready[n-1] = nil
		s.ready = s.ready[:n-1]
		s.dmu.Unlock()
		w.ch <- it // never blocks: parked workers have an empty channel
		return true, ""
	}
	if s.workers < s.opts.MaxInFlight {
		s.workers++
		s.dmu.Unlock()
		w := &dispatchWorker{ch: make(chan workItem, 1)}
		s.workerWg.Add(1)
		go s.workerLoop(w, it)
		return true, ""
	}
	if len(s.queue) < s.opts.QueueDepth {
		s.queue = append(s.queue, it)
		s.queued.Add(1)
		s.dmu.Unlock()
		return true, ""
	}
	s.dmu.Unlock()
	s.reqWg.Done()
	return false, fmt.Sprintf("server saturated (%d in flight, %d queued)",
		s.opts.MaxInFlight, s.opts.QueueDepth)
}

// workerLoop is one pooled dispatcher: run the handed item, then keep
// pulling queued work; with the queue empty, park on the ready stack and
// sleep until the next handoff, the reaper, or shutdown.
func (s *Server) workerLoop(w *dispatchWorker, it workItem) {
	defer s.workerWg.Done()
	for {
		s.runItem(it)
		s.dmu.Lock()
		if len(s.queue) > 0 {
			// FIFO: admitted order is dispatch order.
			it = s.queue[0]
			copy(s.queue, s.queue[1:])
			s.queue[len(s.queue)-1] = workItem{}
			s.queue = s.queue[:len(s.queue)-1]
			s.queued.Add(-1)
			s.dmu.Unlock()
			continue
		}
		if s.stopped {
			s.workers--
			s.dmu.Unlock()
			return
		}
		w.parkedAt = time.Now().UnixNano()
		s.ready = append(s.ready, w)
		s.dmu.Unlock()
		select {
		case next, ok := <-w.ch:
			if !ok {
				return // reaped; the reaper already decremented workers
			}
			it = next
		case <-s.stop:
			// Shutdown while parked. If we are still on the ready stack,
			// remove ourselves and exit. If not, a popper owns our channel:
			// either admit is handing us one final item (run it — it was
			// admitted, and reqWg holds Shutdown open for it) or the reaper
			// is about to close the channel.
			if s.unpark(w) {
				return
			}
			next, ok := <-w.ch
			if !ok {
				return
			}
			it = next
		}
	}
}

// unpark removes w from the ready stack if it is still there, releasing its
// worker slot. It reports false when another goroutine already popped w.
func (s *Server) unpark(w *dispatchWorker) bool {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	for i, rw := range s.ready {
		if rw == w {
			copy(s.ready[i:], s.ready[i+1:])
			s.ready[len(s.ready)-1] = nil
			s.ready = s.ready[:len(s.ready)-1]
			s.workers--
			return true
		}
	}
	return false
}

// reaperLoop shrinks the worker pool after load drops: workers parked longer
// than WorkerIdleTimeout are popped off the ready stack and their channels
// closed, which makes the worker goroutine exit. The ready stack is LIFO, so
// the longest-idle workers accumulate at the bottom and the scan is a prefix
// walk.
func (s *Server) reaperLoop() {
	defer s.wg.Done()
	idle := s.opts.WorkerIdleTimeout
	tick := idle / 2
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var victims []*dispatchWorker
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			cutoff := now.Add(-idle).UnixNano()
			victims = victims[:0]
			s.dmu.Lock()
			n := 0
			for n < len(s.ready) && s.ready[n].parkedAt < cutoff {
				n++
			}
			if n > 0 {
				victims = append(victims, s.ready[:n]...)
				rest := copy(s.ready, s.ready[n:])
				for i := rest; i < len(s.ready); i++ {
					s.ready[i] = nil
				}
				s.ready = s.ready[:rest]
				s.workers -= n
			}
			s.dmu.Unlock()
			for _, w := range victims {
				close(w.ch)
			}
		}
	}
}

// runItem executes one admitted request on the calling worker. The ledger
// settles when the upcall ends, before the reply is written: a client that
// has its reply in hand must find the in-flight slots it held released and
// its dispatch counted, or a strictly serial client under MaxConnInFlight 1
// is shed for the slot its own previous request still holds.
func (s *Server) runItem(it workItem) {
	defer s.reqWg.Done()
	s.span(obs.PhaseAdmission, it.req.RequestID, it.arrival)
	s.inflight.Add(1)
	s.dispatched.Add(1)
	out := getReplyEncoder()
	defer putReplyEncoder(out)
	status := s.upcall(it.sc.conn, it.req, out)
	s.inflight.Add(-1)
	it.sc.inflight.Add(-1)
	if it.req.ResponseExpected {
		reply := &wire.Reply{RequestID: it.req.RequestID, Status: status, Args: out.Bytes()}
		if werr := it.sc.conn.WriteMessage(reply); werr != nil {
			s.Logf("orb: reply write: %v", werr)
			// A failed (or deadline-expired) reply write leaves the stream
			// unusable mid-frame; kill the connection so its serve loop exits
			// instead of framing garbage at the peer.
			it.sc.conn.Close()
		}
	}
	if it.arrival != 0 && s.dispatchNS != nil {
		s.dispatchNS.Observe(time.Duration(time.Now().UnixNano() - it.arrival))
	}
}

// shedRequest refuses a request with a TRANSIENT system exception (when a
// reply is expected at all).
func (s *Server) shedRequest(sc *servedConn, req *wire.Request, msg string) {
	s.shed.Add(1)
	if !req.ResponseExpected {
		return
	}
	out := getReplyEncoder()
	status := encodeException(out, Transient(msg))
	reply := &wire.Reply{RequestID: req.RequestID, Status: status, Args: out.Bytes()}
	if err := sc.conn.WriteMessage(reply); err != nil {
		s.Logf("orb: shed reply write: %v", err)
	}
	putReplyEncoder(out)
}

// upcall hands req to its servant and leaves the reply payload — results or
// exception — in out, returning the reply status.
func (s *Server) upcall(conn *transport.Conn, req *wire.Request, out *cdr.Encoder) wire.ReplyStatus {
	defer s.handleNS.Done(s.handleNS.Start())
	sv, ok := s.lookup(req.ObjectKey)
	var err error
	if !ok {
		err = ObjectNotExist(req.ObjectKey)
	} else if in, derr := ArgDecoder(req.Args); derr != nil {
		err = Marshal(derr)
	} else {
		func() {
			defer func() {
				if p := recover(); p != nil {
					err = &SystemException{RepoID: RepoInternal, Message: fmt.Sprint("servant panic: ", p)}
					s.Logf("orb: servant panic in %q: %v", req.Operation, p)
				}
			}()
			if cs, ok := sv.(ConnServant); ok {
				err = cs.DispatchConn(conn, req.Operation, in, out)
			} else {
				err = sv.Dispatch(req.Operation, in, out)
			}
		}()
	}
	if err == nil {
		return wire.ReplyNoException
	}
	ResetArgEncoder(out)
	return encodeException(out, err)
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.lis.Addr() }

// Shutdown drains the server gracefully: it stops accepting connections,
// sheds new and queued-but-undispatched requests with TRANSIENT, waits
// (bounded by ctx) for dispatching requests to write their replies, then
// announces CloseConnection to every peer and tears the connections down. It
// returns ctx.Err() when the drain deadline expired with dispatches still
// running (they are abandoned to finish against closed connections).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	s.mu.Unlock()
	close(s.stop)
	err := s.lis.Close()
	if s.metrics != nil {
		// The per-server pull goes away with the server; the process-wide
		// frame-pool pull stays (its key is shared and still valid).
		s.metrics.UnregisterPull(s.pullKey)
	}
	if s.msrv != nil {
		_ = s.msrv.Close()
	}

	// Stop the dispatch engine and shed the queue: a queued request has not
	// started executing, so refusing it with TRANSIENT now (while its
	// connection still works) beats processing it into a torn-down server.
	// Workers drain themselves: busy ones finish their item and exit on
	// seeing stopped, parked ones exit via s.stop.
	s.dmu.Lock()
	s.stopped = true
	pending := s.queue
	s.queue = nil
	s.dmu.Unlock()
	for _, it := range pending {
		s.queued.Add(-1)
		it.sc.inflight.Add(-1)
		s.shedRequest(it.sc, it.req, "server draining")
		s.reqWg.Done()
	}

	// Let in-flight dispatches write their replies before the connections
	// go away, but never wait past the caller's deadline.
	done := make(chan struct{})
	go func() {
		s.reqWg.Wait()
		close(done)
	}()
	drained := true
	select {
	case <-done:
	case <-ctx.Done():
		drained = false
		if err == nil {
			err = ctx.Err()
		}
	}

	s.mu.Lock()
	conns := make([]*servedConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		// Orderly goodbye: clients mark the cached connection broken at
		// once and redial (elsewhere) on next use.
		_ = c.conn.WriteMessage(&wire.CloseConnection{})
		c.conn.Close()
	}
	if drained {
		// Every admitted request finished, so the workers are parked or
		// exiting (s.stop is closed); collect them. After a deadline-expired
		// drain the stuck workers are abandoned with their dispatches.
		s.workerWg.Wait()
	}
	s.wg.Wait()
	return err
}

// Close stops the listener and tears down all connections, waiting without
// bound for in-flight dispatches to finish.
func (s *Server) Close() error {
	return s.Shutdown(context.Background())
}
