package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

// Operation is the server-side registration of one operation of an SPMD
// object: its distributed-argument signature, a factory for its server-side
// sequences, and the collective handler.
type Operation struct {
	Desc OpDesc
	// NewArgs builds the operation's server-side sequences, one per entry of
	// Desc.Args, on the given communicator: once per computing thread, at the
	// operation's first call, and they may be empty. Before every call the
	// object resets each in place (dseq.Transferable.Reset) on the template
	// Desc advertises — In and InOut arguments to the client's length, Out
	// arguments to empty, whose length the handler chooses — and it lets them
	// go when Serve returns. Generated skeletons supply this; SeqArgsFloat64
	// covers the common all-double case.
	NewArgs func(comm *rts.Comm) ([]dseq.Transferable, error)
	// Handler performs the operation. It runs on every computing thread
	// (the collective upcall); the scalar results written by thread 0 form
	// the reply.
	Handler func(call *ServerCall) error
}

// ServerCall is the context of one collective upcall. It, its In decoder, its
// Args and any slice taken from their LocalData are the object's scratch,
// valid for the upcall only: the next invocation reuses them all — the next
// call of the operation resets the same sequences in place — so a handler
// keeps none of them past its return. Storage a handler hands an argument
// (SetLocal) stays the application's: the next call lets it go unwritten.
type ServerCall struct {
	// Comm is the object's engine communicator: Rank identifies this
	// computing thread. Handlers may use it for their own collectives; the
	// engine serializes invocations, so no interleaving can occur.
	Comm *rts.Comm
	// Op is the invoked operation name.
	Op string
	// In decodes the non-distributed arguments (identical on all threads,
	// as the paper requires: "all threads will invoke the request with
	// identical values of non-distributed arguments").
	In *cdr.Decoder
	// Out collects scalar results; thread 0's bytes form the reply.
	Out *cdr.Encoder
	// Args are the operation's distributed arguments in declaration order,
	// already populated for In/InOut.
	Args []dseq.Transferable
}

// ExportOptions configure Export.
type ExportOptions struct {
	// TypeID is the object's repository id (e.g. "IDL:diff_object:1.0").
	TypeID string
	// Host is the address to listen on; default loopback.
	Host string
	// Multiport exposes one endpoint per computing thread, enabling the
	// multi-port transfer method. Without it only the communicating
	// thread's endpoint is advertised (centralized only).
	Multiport bool
	// Name and NameServer, when both set, register the object in the
	// PARDIS naming domain at export time (thread 0 performs the
	// registration).
	Name       string
	NameServer string
	// Replica announces the object as one member of a replicated or sharded
	// group instead of overwriting the name: registration goes through
	// BindReplica, so the naming domain merges this object's profile into
	// the group's multi-profile reference. A client's keyed invocation
	// (Binding.InvokeSharded) then treats each profile as one shard.
	Replica bool
	// QueueDepth bounds pending requests awaiting the collective loop. A
	// request arriving with the queue full is refused immediately with a
	// TRANSIENT system exception rather than parked without bound.
	QueueDepth int
	// DataTimeout bounds every wait of a computing thread on client data:
	// for the next frame of an argument's transfers, and for a client's
	// attachment before results flow back to it. A client that dies
	// mid-transfer then fails the upcall instead of wedging the collective
	// loop. Defaults to DefaultDataTimeout; negative disables.
	DataTimeout time.Duration
	// Server configures the per-thread object adapters' robustness layer:
	// admission-control caps, write deadlines, liveness keepalives. The zero
	// value uses orb's defaults.
	Server orb.ServerOptions
	// Trace, when set, receives one span per server-side invocation phase
	// (queue, recv-xfer, upcall, send-xfer) on this thread, keyed by the
	// invocation token carried in the request header. The adapter's own
	// admission spans go to Server.Trace, which defaults to this recorder.
	Trace *obs.Recorder
	// Compression is the wire-compression codec mask (zcodec mask bits) this
	// object sends with: framed reply legs and an elastic resize's state
	// compress their numeric chunks with it. Zero keeps what it sends raw.
	// What a client sends is the client's choice; every chunk decodes
	// whatever it carries.
	Compression uint8
	// CompressionPolicy selects how reply legs apply the mask: PolicyAuto
	// (the zero default) lets the adaptive estimator send raw when the
	// client's connection is faster than the codec, PolicyAlways compresses
	// every framed reply leg.
	CompressionPolicy zcodec.Policy
	// Epoch is the membership epoch of an elastic export (set by the elastic
	// engine; leave 0 for conventional exports). A non-zero epoch is suffixed
	// into the object key — so a stale client whose request reaches a reused
	// endpoint gets OBJECT_NOT_EXIST, which the naming Rebinder treats as
	// stale and re-resolves — carried in the published IOR, and checked
	// against epoch-tagged invocation headers before any data transfer.
	Epoch int
}

// DefaultDataTimeout is the default ExportOptions.DataTimeout.
const DefaultDataTimeout = 30 * time.Second

// Object is one computing thread's handle on an exported SPMD object.
type Object struct {
	comm *rts.Comm
	opts ExportOptions
	ops  map[string]*Operation
	// args holds, for each operation called on this thread, the sequences its
	// NewArgs built: one buffer per argument, reset by every call, no larger
	// than the largest the operation has moved, and let go when Serve returns.
	args map[*Operation][]dseq.Transferable
	srv  *orb.Server // nil on threads without a listener
	ref  orb.IOR
	rec  *obs.Recorder
	// compSkipped counts framed reply legs the Auto estimator sent raw
	// despite a mask (nil-safe no-op without Server.Metrics).
	compSkipped *obs.Counter

	// rank 0 only: requests from the object adapter awaiting the
	// collective loop.
	queue chan *pendingCall
	stop  chan struct{}

	bucketMu sync.Mutex
	buckets  map[uint32]*dataBucket
	// spare holds the buckets that left the table, emptied, for bucket to
	// reissue (under bucketMu): never more than were live at once on this
	// thread, and let go when Serve returns and at Close and Shutdown.
	spare []*dataBucket

	// draining sheds new requests with TRANSIENT once Shutdown begins.
	draining  atomic.Bool
	closeOnce sync.Once

	// processCall's scratch: the scalar-results encoder, and the ServerCall
	// and In decoder it hands the handler. Each computing thread owns its own
	// Object, Out's bytes are copied into the reply before the next call resets
	// them, and a ServerCall is valid for its upcall only.
	outScratch *cdr.Encoder
	upcall     ServerCall
	in         cdr.Decoder

	// Elastic wiring, installed between Export and Serve by the elastic
	// engine (all fields nil/zero on conventional objects). resizeCh (thread
	// 0 only) delivers resize tickets into the collective loop; onResize is
	// this thread's snapshot callback, run inside the loop when thread 0
	// broadcasts a resize directive; elastic is the owning engine, consulted
	// by Resize and the admin operation.
	resizeCh chan *resizeTicket
	onResize func() error
	elastic  *Elastic
}

type pendingCall struct {
	header *invocationHeader
	// raw is the header as the request carried it, from the payload's
	// byte-order octet on: what the directive relays to the other threads.
	raw []byte
	// conn is the connection the request arrived on and the Reply will leave
	// on: a framed send leg writes the results there, ahead of it.
	conn *transport.Conn
	// steps is the request past its header, where a receive leg placed in the
	// message has its steps: sub-slices of the message the adapter holds until
	// dispatch returns.
	steps      *cdr.Decoder
	replyCh    chan callResult
	enqueuedNS int64 // when dispatch queued the call; 0 when tracing is off
}

// pendingCalls recycles a pendingCall, replyCh and all, once dispatch has taken
// its reply, the collective loop's last touch; one given up on is not reused.
var pendingCalls = sync.Pool{New: func() any { return &pendingCall{replyCh: make(chan callResult, 1)} }}

type callResult struct {
	reply []byte
	err   error
}

// dataBucket accumulates multi-port transfers and connection attachments
// for one invocation token on one computing thread. The first Data frame of a
// token opens it; the call that carries the token claims it and drops it
// when done. A bucket nobody claims — its header was refused, here or by the
// adapter's admission control before dispatch saw it, or never came — lives
// DataTimeout past its last frame and is dropped by the next sweep. A dropped
// bucket is emptied and goes back to the object, which reissues it, channel,
// timer and conns map and all, to the next token that needs one.
type dataBucket struct {
	o *Object
	sink
	connMu sync.Mutex
	// token is the invocation the bucket serves (written under both locks):
	// what a handleData that looked the bucket up before it moved on brings
	// for another token is late and belongs to nobody.
	token uint32
	conns map[int]*transport.Conn // client rank → connection for replies
	// notify wakes a return-flow sender waiting for a client attachment
	// that is still in flight (a pure-out operation can reach its send
	// phase before the attach message lands).
	notify chan struct{}

	claimed   bool      // under Object.bucketMu: a call is being processed on it
	lastFrame time.Time // under Object.bucketMu: when handleData last fed it
	// dropped is set while the bucket is out of the table (written under
	// Object.bucketMu, where reading it is exact): idle, it buffers nobody's
	// frames.
	dropped atomic.Bool
}

// conn returns the recorded connection for a client rank, waiting up to
// timeout for the attachment to arrive. A nil stop channel disables
// cancellation; timeout <= 0 disables the deadline.
func (b *dataBucket) conn(rank int, stop <-chan struct{}, timeout time.Duration) (*transport.Conn, error) {
	var deadline <-chan time.Time
	for {
		b.connMu.Lock()
		c := b.conns[rank]
		b.connMu.Unlock()
		if c != nil {
			return c, nil
		}
		// The timer is armed only to wait: a connection already recorded, the
		// usual case, costs none.
		if deadline == nil && timeout > 0 {
			t := time.NewTimer(timeout)
			defer t.Stop()
			deadline = t.C
		}
		select {
		case <-b.notify:
		case <-stop:
			return nil, ErrStopped
		case <-deadline:
			return nil, fmt.Errorf("core: no attachment from client thread %d", rank)
		}
	}
}

// dataConn is conn under the object's stop and DataTimeout: what a direct send
// leg resolves a client thread's connection with (connSource).
func (b *dataBucket) dataConn(rank int) (*transport.Conn, error) {
	return b.conn(rank, b.o.stop, b.o.opts.DataTimeout)
}

// bucketCapacity is how many Data frames one thread's bucket (server) or lane
// sink (client) holds ahead of the leg that drains it. A connection's read loop
// blocks on a full one, and the frames of a leg may all arrive before their
// reader starts — a back leg is written before the Reply that releases the
// client, a forward leg can outrun the header queued behind it on the same
// connection — so no leg may address more frames than this to one thread.
// chunkElemsFor keeps a leg within maxStreamChunks steps into any thread, or
// its flows into it where they are more, and refuses more flows than this.
const bucketCapacity = 4096

// Export collectively registers an SPMD object implementation. Every
// computing thread calls it with identical options and operation tables.
// The returned handles share one object; thread 0's carries the
// communicating-thread endpoint.
//
// Like an invocation it is a fixed collective skeleton — a gather of every
// thread's endpoint or the error that kept it from listening, then one share
// of the reference thread 0 built and registered or the first error met — and
// no thread leaves between the two: a listener that cannot bind on one thread
// or a name server that cannot be reached fails Export on every thread, with
// the same error, as soon as thread 0 knows, and leaves no listener behind.
func Export(comm *rts.Comm, opts ExportOptions, operations []Operation) (_ *Object, err error) {
	ops := make(map[string]*Operation, len(operations))
	for i := range operations {
		op := &operations[i]
		if _, dup := ops[op.Desc.Name]; dup {
			return nil, fmt.Errorf("core: duplicate operation %q", op.Desc.Name)
		}
		if op.Desc.Name == describeOp || op.Desc.Name == resizeOp {
			return nil, fmt.Errorf("core: operation name %q is reserved", op.Desc.Name)
		}
		ops[op.Desc.Name] = op
	}
	engine, err := comm.Dup()
	if err != nil {
		return nil, err
	}
	if opts.Host == "" {
		opts.Host = "127.0.0.1"
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.DataTimeout == 0 {
		opts.DataTimeout = DefaultDataTimeout
	} else if opts.DataTimeout < 0 {
		opts.DataTimeout = 0
	}
	if opts.Server.Trace == nil {
		opts.Server.Trace = opts.Trace
	}
	opts.Compression &= zcodec.Supported
	o := &Object{
		comm:    engine,
		opts:    opts,
		ops:     ops,
		args:    make(map[*Operation][]dseq.Transferable),
		buckets: make(map[uint32]*dataBucket),
		stop:    make(chan struct{}),
		rec:     opts.Trace,
	}
	o.compSkipped = opts.Server.Metrics.Counter("core.compress.skipped_total")
	// A failed export leaves no listener behind, on any thread.
	defer func() {
		if err != nil {
			o.closeListeners()
		}
	}()

	// Listeners: the communicating thread always listens; other threads
	// listen only when the multi-port method is advertised. Each thread's
	// endpoint, or its listen error, is its contribution to the gather.
	var listenErr error
	if engine.Rank() == 0 || opts.Multiport {
		if o.srv, listenErr = orb.NewServerOpts(orb.Endpoint{Host: opts.Host}.Addr(), opts.Server); listenErr == nil {
			o.srv.SetDataHandler(o.handleData)
			o.srv.SetConnLostHandler(o.connLost)
		}
	}
	addrs, gatherErr := engine.Gather(0, encodeOutcome(func(e *cdr.Encoder) error {
		if o.srv != nil {
			e.WriteRaw([]byte(o.srv.Addr()))
		}
		return listenErr
	}))

	// Thread 0 builds the reference, installs the servant and registers the
	// name; nobody serves before that is done.
	shared, err := share(engine, func(e *cdr.Encoder) error {
		if gatherErr != nil {
			return gatherErr
		}
		key := fmt.Sprintf("spmd/%s/%s", opts.TypeID, opts.Name)
		if opts.Epoch > 0 {
			// Per-epoch keys: a stale client reaching a reused endpoint with
			// an old key gets OBJECT_NOT_EXIST (a re-resolvable refusal)
			// rather than a silently different epoch of the object.
			key = fmt.Sprintf("%s@e%d", key, opts.Epoch)
		}
		ref := orb.IOR{TypeID: opts.TypeID, Key: []byte(key), Threads: engine.Size(), Epoch: opts.Epoch}
		for r, p := range addrs {
			addr, err := openOutcome(p)
			if err != nil {
				return fmt.Errorf("listener of thread %d: %w", r, err)
			}
			if len(addr) > 0 {
				host, port := orb.SplitHostPort(string(addr))
				ref.Endpoints = append(ref.Endpoints, orb.Endpoint{Host: host, Port: port, Rank: r})
			}
		}
		o.ref = ref
		o.queue = make(chan *pendingCall, opts.QueueDepth)
		o.srv.Register(ref.Key, servant{o})
		e.WriteRaw([]byte(ref.String()))
		if opts.Name == "" || opts.NameServer == "" {
			return nil
		}
		client := orb.NewClient()
		defer client.Close()
		res := naming.NewResolver(client, opts.NameServer)
		if opts.Replica {
			return res.BindReplica(opts.Name, ref)
		}
		return res.Bind(opts.Name, ref, true)
	})
	if err == nil {
		err = gatherErr
	}
	if err != nil {
		return nil, fmt.Errorf("core: exporting %q: %w", opts.Name, err)
	}
	// Thread 0 set its reference before the first request could reach it.
	if engine.Rank() != 0 {
		if o.ref, err = orb.ParseIOR(string(shared)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// span records one server-side phase of invocation token on this computing
// thread, with the wire-compression mask in effect for it (0: none, or the
// phase moves no chunks). The token is the same trace id the client side
// records under, so a merged dump interleaves both halves of an invocation.
func (o *Object) span(token uint32, ph obs.Phase, start time.Time, mask uint8) {
	if o.rec == nil {
		return
	}
	o.rec.Record(obs.Span{Trace: uint64(token), Phase: ph, Rank: int32(o.comm.Rank()),
		Start: start.UnixNano(), Dur: int64(time.Since(start)), Codec: int32(mask)})
}

// Ref returns the object's reference.
func (o *Object) Ref() orb.IOR { return o.ref }

// Comm returns the object's engine communicator.
func (o *Object) Comm() *rts.Comm { return o.comm }

// servant is the communicating thread's orb.ConnServant: the adapter hands it
// the connection each request arrived on, and never calls Dispatch.
type servant struct{ o *Object }

func (s servant) Dispatch(string, *cdr.Decoder, *cdr.Encoder) error {
	return &orb.SystemException{RepoID: orb.RepoInternal, Message: "core: request dispatched without its connection"}
}

func (s servant) DispatchConn(conn *transport.Conn, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	return s.o.dispatch(conn, op, in, out)
}

// dispatch answers interface discovery directly and funnels operation requests
// into the collective queue, blocking the adapter goroutine until the
// collective loop replies.
func (o *Object) dispatch(conn *transport.Conn, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if op == describeOp {
		descs := make([]OpDesc, 0, len(o.ops))
		for _, operation := range o.ops {
			descs = append(descs, operation.Desc)
		}
		encodeOpTable(out, descs)
		return nil
	}
	if op == resizeOp {
		return o.adminResize(in, out)
	}
	hdr, err := decodeInvocationHeader(in)
	if err != nil {
		return orb.Marshal(err)
	}
	call, err := o.enqueue(conn, op, hdr, in.Consumed(), in)
	if err != nil {
		// A refused header claims no bucket: what its token's data already
		// brought goes back to the pool now, what is still on its way when the
		// sweep finds it.
		o.dropBucket(hdr.Token)
		return err
	}
	select {
	case res := <-call.replyCh:
		pendingCalls.Put(call)
		if res.err != nil {
			return res.err
		}
		// res.reply is a complete argument payload the collective loop
		// built and handed over (both encoders come from NewArgEncoder, so
		// orders agree): it becomes the adapter's reply as it is, with no
		// copy of the results gathered into it.
		if len(res.reply) > 0 {
			out.Adopt(res.reply)
		}
		return nil
	case <-o.stop:
		return &orb.SystemException{RepoID: orb.RepoInternal, Message: ErrStopped.Error()}
	}
}

// enqueue hands an invocation header, and the rest of its request, to the
// collective loop, or says why not.
func (o *Object) enqueue(conn *transport.Conn, op string, hdr *invocationHeader, raw []byte, rest *cdr.Decoder) (*pendingCall, error) {
	if hdr.Op != op {
		return nil, orb.Marshal(fmt.Errorf("%w: header op %q != request op %q", ErrBadHeader, hdr.Op, op))
	}
	// Validate cheaply before involving the other computing threads.
	if err := o.validate(hdr); err != nil {
		return nil, err
	}
	if err := checkSteps(*rest, o.ops[hdr.Op].Desc.Args, Out, hdr.ChunkElems != 0); err != nil {
		return nil, orb.Marshal(err)
	}
	if o.draining.Load() {
		return nil, orb.Transient("object draining")
	}
	call := pendingCalls.Get().(*pendingCall)
	*call = pendingCall{header: hdr, raw: raw, conn: conn, steps: rest, replyCh: call.replyCh}
	if o.rec != nil {
		call.enqueuedNS = time.Now().UnixNano()
	}
	// Never park the adapter goroutine on an unbounded wait: a full
	// collective queue sheds immediately with TRANSIENT (the request was
	// never dispatched, so the client may retry here or on a replica).
	select {
	case o.queue <- call:
		return call, nil
	case <-o.stop:
		return nil, &orb.SystemException{RepoID: orb.RepoInternal, Message: ErrStopped.Error()}
	default:
		return nil, orb.Transient(fmt.Sprintf("collective queue full (%d pending)", cap(o.queue)))
	}
}

// adminResize serves the reserved "_pardis_resize" operation: it accepts a
// target thread count and triggers the membership change asynchronously
// (synchronous would deadlock — the resize quiesces this very adapter). The
// reply reports the epoch current at acceptance time; callers observe the
// transition through re-resolution.
func (o *Object) adminResize(in *cdr.Decoder, out *cdr.Encoder) error {
	if !o.opts.Server.AdminResize || o.elastic == nil {
		return orb.BadOperation(resizeOp)
	}
	n, err := in.ReadLong()
	if err != nil {
		return orb.Marshal(err)
	}
	if n < 1 || n > 1<<20 {
		return &orb.SystemException{RepoID: orb.RepoBadOperation,
			Message: fmt.Sprintf("%s: target size %d", resizeOp, n)}
	}
	el := o.elastic
	go func() { _ = el.Resize(int(n)) }()
	out.WriteLong(int32(el.Epoch()))
	return nil
}

// validate checks an inbound header against the operation table.
func (o *Object) validate(h *invocationHeader) error {
	if int(h.Epoch) != o.opts.Epoch {
		// Wrong membership epoch: the client bound before (or, during a
		// rollback window, after) a resize. Refuse before any data moves —
		// the client must never scatter against the wrong shape — with the
		// re-resolvable refusal, so the Rebinder path retries at most once.
		return orb.ObjectNotExist(o.ref.Key)
	}
	op, ok := o.ops[h.Op]
	if !ok {
		return orb.BadOperation(h.Op)
	}
	if len(h.Args) != len(op.Desc.Args) {
		return &orb.SystemException{
			RepoID:  orb.RepoBadOperation,
			Message: fmt.Sprintf("%s: %d distributed args, want %d", h.Op, len(h.Args), len(op.Desc.Args)),
		}
	}
	for i, a := range h.Args {
		want := op.Desc.Args[i]
		if a.Dir != want.Dir {
			return &orb.SystemException{
				RepoID:  orb.RepoBadOperation,
				Message: fmt.Sprintf("%s arg %d: dir %v, want %v", h.Op, i, a.Dir, want.Dir),
			}
		}
		if a.Elem != want.Elem {
			return &orb.SystemException{
				RepoID:  orb.RepoBadOperation,
				Message: fmt.Sprintf("%s arg %d: element type %q, want %q", h.Op, i, a.Elem, want.Elem),
			}
		}
	}
	if h.Method == Multiport && !o.opts.Multiport {
		return &orb.SystemException{RepoID: orb.RepoBadOperation, Message: ErrNoMultiport.Error()}
	}
	return nil
}

// handleData routes an inbound multi-port transfer (or connection
// attachment) to its invocation's bucket on this computing thread.
func (o *Object) handleData(d *wire.Data, conn *transport.Conn) {
	o.bucket(d.RequestID, false).deliver(d, conn)
}

// deliver records the connection d arrived on as its source thread's, and
// queues d's payload, unless the bucket has moved on to another token since
// d's handleData looked it up.
func (b *dataBucket) deliver(d *wire.Data, conn *transport.Conn) {
	b.connMu.Lock()
	if b.token != d.RequestID {
		b.connMu.Unlock()
		d.Release() // late: nobody's
		return
	}
	if _, ok := b.conns[int(d.SrcRank)]; !ok {
		if b.conns == nil {
			b.conns = make(map[int]*transport.Conn)
		}
		b.conns[int(d.SrcRank)] = conn
	}
	b.connMu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
	if d.Count == 0 {
		// Pure attachment message: no payload will be consumed, so return
		// any borrowed frame buffer now.
		d.Release()
		return
	}
	b.ch <- d
	if b.dropped.Load() {
		// The bucket left the table after the lookup. Still idle, it holds
		// nobody's frames; reissued meanwhile, another call's, which stay —
		// that call's receive leg skips d.
		b.o.bucketMu.Lock()
		if b.dropped.Load() {
			drainData(b.ch)
		}
		b.o.bucketMu.Unlock()
	}
}

// bucket returns the token's bucket, opening it — a spare one first — at the
// token's first sight. claim is the call now processed on the token taking it,
// which the sweep respects; otherwise the caller is a frame, which restarts
// the bucket's DataTimeout.
func (o *Object) bucket(token uint32, claim bool) *dataBucket {
	o.bucketMu.Lock()
	b, ok := o.buckets[token]
	if !ok {
		if n := len(o.spare); n > 0 {
			b, o.spare = o.spare[n-1], o.spare[:n-1]
			// A reissued bucket starts empty, whatever reached it idle.
			drainData(b.ch)
			b.connMu.Lock()
			b.token = token
			clear(b.conns)
			b.connMu.Unlock()
			b.claimed = false
			b.dropped.Store(false)
		} else {
			// conns is created lazily on first attachment; reads of the nil
			// map are safe and miss.
			b = &dataBucket{
				o:      o,
				sink:   sink{ch: make(chan *wire.Data, bucketCapacity)},
				token:  token,
				notify: make(chan struct{}, 1),
			}
		}
		o.buckets[token] = b
	}
	if claim {
		b.claimed = true
	} else {
		b.lastFrame = time.Now()
	}
	o.bucketMu.Unlock()
	if !ok {
		o.sweep(false)
	}
	return b
}

func (o *Object) dropBucket(token uint32) {
	o.bucketMu.Lock()
	if b := o.buckets[token]; b != nil {
		o.retire(token, b)
	}
	o.bucketMu.Unlock()
}

// retire takes b out of the table (under bucketMu) and returns every frame it
// buffers to the transport pool — e.g. chunks past the first failure of a
// streamed transfer, which the receive loop stopped pulling — before it
// becomes a spare. A handleData that looked b up before sees dropped after its
// own send and drains too, so no frame is stranded whichever comes last.
func (o *Object) retire(token uint32, b *dataBucket) {
	delete(o.buckets, token)
	b.dropped.Store(true)
	drainData(b.ch)
	o.spare = append(o.spare, b)
}

// sweep drops the buckets no call has claimed DataTimeout after their last
// frame — or, at Close and Shutdown, all of them, and lets the spares go. It
// runs when a bucket is opened and when a Poll round begins, so unclaimed data
// is bounded by what arrives within one DataTimeout and needs no goroutine or
// timer of its own. A frame that arrives for a token already dropped opens a
// bucket, which ends here too.
func (o *Object) sweep(all bool) {
	o.bucketMu.Lock()
	for token, b := range o.buckets {
		if all || (!b.claimed && o.opts.DataTimeout > 0 && time.Since(b.lastFrame) > o.opts.DataTimeout) {
			o.retire(token, b)
		}
	}
	if all {
		// In the same hold: a bucket a call still reads is never reissued.
		o.spare = nil
	}
	o.bucketMu.Unlock()
}

// releaseSpares lets the spare buckets go. A spare holds no frame, and one a
// late handleData brings it is drained on arrival: the bucket stays dropped.
func (o *Object) releaseSpares() {
	o.bucketMu.Lock()
	o.spare = nil
	o.bucketMu.Unlock()
}

// connLost poisons every bucket fed by the lost connection with a nil
// sentinel: an upcall mid-receive on that bucket then fails promptly (and
// coherently, through the collective error agreement) instead of waiting out
// the data timeout. Invoked by the adapter after a connection's serve loop
// ends — peer death via keepalive included.
func (o *Object) connLost(conn *transport.Conn) {
	o.bucketMu.Lock()
	defer o.bucketMu.Unlock()
	for _, b := range o.buckets {
		b.connMu.Lock()
		fed := false
		for _, c := range b.conns {
			if c == conn {
				fed = true
				break
			}
		}
		b.connMu.Unlock()
		if fed {
			select {
			case b.ch <- nil:
			default: // bucket full; the consumer will fail on its own
			}
		}
	}
}

func (o *Object) closeListeners() {
	if o.srv != nil {
		o.srv.Close()
	}
}

// Shutdown drains this thread's adapter gracefully: new requests are shed
// with TRANSIENT, the adapter stops accepting connections, in-flight
// dispatches get until ctx's deadline to finish (the collective loop must
// still be running — call Shutdown from another goroutine while Serve runs,
// or between Poll calls), peers are told CloseConnection, and finally the
// collective loop is released. Local (not collective) and idempotent.
func (o *Object) Shutdown(ctx context.Context) error {
	o.draining.Store(true)
	var err error
	if o.srv != nil {
		err = o.srv.Shutdown(ctx)
	}
	o.closeOnce.Do(func() {
		close(o.stop)
	})
	o.sweep(true)
	return err
}

// Close tears down this thread's listener and unblocks the adapter. It is
// local (not collective) and idempotent; Serve on this thread returns.
func (o *Object) Close() {
	o.draining.Store(true)
	o.closeOnce.Do(func() {
		close(o.stop)
		o.closeListeners()
	})
	o.sweep(true)
}
