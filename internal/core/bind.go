package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

// BindOptions configure SPMDBind and Bind.
type BindOptions struct {
	// TypeID, when set, constrains the name resolution to that repository
	// id (CORBA-style typed narrowing at bind time).
	TypeID string
	// Method is the default argument transfer method for invocations on
	// this binding.
	Method Method
	// Timeout bounds each blocking remote interaction; zero means no bound.
	Timeout time.Duration
	// Transport, when set, configures the binding's connections (frame
	// limits, byte order, fault-injection wrappers for chaos tests).
	Transport *transport.Options
	// KeepaliveInterval, when positive, probes idle connections (control and
	// multi-port data alike) and declares a peer dead after a further interval
	// of silence, so a SIGKILL'd server rank surfaces as a prompt coherent
	// error through the collective error agreement instead of a data-timeout
	// stall.
	KeepaliveInterval time.Duration
	// Breaker is the per-endpoint circuit breaker policy applied when the
	// bound reference carries multiple replica profiles.
	Breaker orb.BreakerPolicy
	// Trace, when set, receives one span per invocation phase (bind, invoke,
	// gather, pack, sendrecv, scatter, unpack, barrier) as observed by this
	// thread, keyed by the invocation token — the key the server's object
	// phases carry too. It records spans only; nothing of it goes on the wire.
	Trace *obs.Recorder
	// Metrics, when set, receives the binding's client-side resilience
	// counters (see orb.Client.Metrics) and the pipeline inflight gauge
	// ("core.pipeline_inflight").
	Metrics *obs.Registry
	// PipelineDepth is the number of invocations that may be outstanding on
	// this binding at once (0 and 1 both mean the classic one-at-a-time
	// engine). Each extra lane gets its own duplicated communicator, so the
	// collective traffic of overlapping invocations cannot interleave;
	// replies demultiplex by request id on the shared connection. Issuing
	// more than PipelineDepth concurrent invocations fails with ErrBusy —
	// as with the depth-1 engine, the SPMD discipline requires every thread
	// to issue the same invocations in the same order.
	PipelineDepth int
	// StreamChunkElems is the chunk size, in elements, every bulk leg is cut
	// in. A centralized leg with an argument of at least two chunks — an
	// In/InOut one on the way out, an Out/InOut result on the way back — is
	// gathered, shipped and scattered chunk by chunk, overlapping collective
	// (un)marshalling with the wire; a smaller leg rides in the message — the
	// request or the reply — behind its header. A multi-port leg always moves
	// in chunks of this size between the owning threads (a piece of the plan
	// shorter than a chunk is one chunk). Either way the size is doubled until the leg fits its
	// receiver's buffer. 0 or negative means DefaultStreamChunkElems.
	StreamChunkElems int
	// Sharding configures consistent-hash routing across the profiles of a
	// multi-profile reference, each profile being one shard group announced
	// through naming.BindReplica. A shard key routes: InvokeSharded
	// invocations go to the key's shard; everything else — the bind-time
	// describe, plain Invoke — walks the profiles primary first.
	Sharding ShardingOptions
	// Compression is the wire-compression codec mask (zcodec.MaskAll and
	// friends; build one with zcodec.ParseMask) this binding sends with:
	// framed centralized request legs compress their numeric chunks with its
	// block codec. The server decodes whatever arrives and compresses its
	// replies by its own ExportOptions.Compression. Zero keeps every request
	// leg raw and the engine's raw path untouched.
	Compression uint8
	// CompressionPolicy selects how the mask is applied per request leg.
	// PolicyAuto (the zero default) consults the adaptive estimator —
	// compress only when the observed encode throughput and ratio beat the
	// connection's measured wire bandwidth — so a binding on a fast loopback
	// skips the codec it would want on a thin WAN link. PolicyAlways
	// compresses every framed request leg.
	CompressionPolicy zcodec.Policy
	// ShareConnection lets this binding share one multiplexed client engine
	// — and therefore one connection per endpoint — with every other
	// ShareConnection binding in the process whose client-relevant options
	// match. The orb client already demultiplexes concurrent replies by
	// request id, so sharing costs nothing in correctness; what it buys is
	// massive fan-in: thousands of cheap bindings to one server ride a
	// handful of connections instead of opening one each. Shared clients are
	// reference-counted — the last Close of a sharing binding closes the
	// underlying client. The shared client reports the generic principal
	// "spmd-client/shared" instead of a per-rank one.
	ShareConnection bool
}

// ShardingOptions configure a binding's consistent-hash shard routing.
type ShardingOptions struct {
	// VirtualNodes is the per-shard ring point count; 0 uses the package
	// default. Every client of one shard group must agree on it.
	VirtualNodes int
	// Idempotent declares this binding's operations safe to re-execute: an
	// invocation whose shard dies mid-flight reroutes transparently to the
	// next ring successor. Leave false for operations with side effects —
	// those surface a single coherent shard error instead of re-sending.
	Idempotent bool
}

// sharedClients holds the process-wide reference-counted client engines
// behind ShareConnection bindings.
var sharedClients = orb.NewClientPool()

// clientKey fingerprints every option that changes the built client's wire
// behaviour, so only identically-configured bindings share an engine.
// Pointer-valued options (Transport, Trace, Metrics) are identified by
// pointer: distinct instances mean distinct wiring even when the contents
// happen to match.
func (o BindOptions) clientKey() string {
	return fmt.Sprintf("to=%v tr=%p ka=%v bk=%v rec=%p met=%p sh=%v",
		o.Timeout, o.Transport, o.KeepaliveInterval,
		o.Breaker, o.Trace, o.Metrics, o.Sharding)
}

// maxPipelineDepth bounds the lane fan-out so a typo'd depth cannot allocate
// thousands of communicator contexts.
const maxPipelineDepth = 64

// newClient builds an orb client configured per the options.
func (o BindOptions) newClient() *orb.Client {
	cli := orb.NewClient()
	cli.Timeout = o.Timeout
	cli.Transport = o.Transport
	cli.Metrics = o.Metrics
	cli.KeepaliveInterval = o.KeepaliveInterval
	cli.Breaker = o.Breaker
	cli.Shard = orb.ShardPolicy{VirtualNodes: o.Sharding.VirtualNodes}
	return cli
}

// Binding is one computing thread's handle on a bound SPMD object. All the
// threads that took part in the SPMDBind share one logical binding; every
// invocation through it is collective ("after spmd_bind, every invocation to
// the object must be called by all the threads that participated in the bind
// call, and will result in making one request on the object", paper §2.1).
type Binding struct {
	comm   *rts.Comm
	client *orb.Client
	ref    orb.IOR
	ops    map[string]OpDesc
	method Method
	// sharedKey, when non-empty, marks the client as borrowed from the
	// process-wide shared pool under that key; Close releases the reference
	// instead of closing the client.
	sharedKey string
	rec       *obs.Recorder

	// lanes carry invocations: each lane owns a duplicated communicator so
	// overlapping invocations' collective traffic stays separated, plus a
	// one-slot free channel acting as its busy latch. Lane 0 reuses the
	// engine communicator. Lanes are assigned round-robin by laneSeq under
	// laneMu — a deterministic cursor, so every SPMD thread picks the same
	// lane for the same invocation without communicating.
	lanes    []bindLane
	laneMu   sync.Mutex
	laneSeq  uint64
	inflight *obs.Gauge // lanes currently busy; nil when metrics are off

	// chunkElems is the chunk size, in elements, this binding moves a leg in:
	// what it places its centralized forward legs by and offers the server for
	// the back legs (legChunkElems), and what both legs of a multi-port
	// invocation start from (chunkElemsFor).
	chunkElems int

	// comp is the binding's compression mask (BindOptions.Compression clipped
	// to this build's codecs); 0 keeps every request leg raw. policy is the
	// per-leg application rule (Auto/Always), and compSkipped counts framed
	// request legs the Auto estimator sent raw despite a mask (nil when
	// metrics are off).
	comp        uint8
	policy      zcodec.Policy
	compSkipped *obs.Counter

	// targets is the bound reference narrowed to each of its profiles, where
	// thread 0 routes an invocation (orb.Route), and addrs their primary
	// addresses, rendered once for every walk; idempotent is
	// BindOptions.Sharding's, which a keyed walk's reroutes follow.
	targets    []target
	addrs      []string
	idempotent bool

	// refEpoch is the membership epoch the bound reference carries (0 for
	// non-elastic objects). Invocation headers are tagged with it so a
	// request that lands on a stale or future epoch of an elastic object is
	// refused before any data transfer — the client never scatters against
	// the wrong shape.
	refEpoch uint32
}

// bindLane is one pipeline slot of a binding.
type bindLane struct {
	comm *rts.Comm
	free chan struct{} // holds one token when the lane is idle
	// sink is where the server's Data frames for the lane's invocation land
	// (orb.Client.RegisterDataSink), made by the first invocation that expects
	// any and kept, timer and all: an invocation registers it under its token,
	// and drains it when it ends. The lane's holder alone touches it.
	sink sink
}

// dataSink returns the lane's sink. Its capacity is what lets a whole reply
// leg (maxStreamChunks) be written before the Reply that releases its reader.
func (ln *bindLane) dataSink() *sink {
	if ln.sink.ch == nil {
		ln.sink.ch = make(chan *wire.Data, bucketCapacity)
	}
	return &ln.sink
}

func newLane(c *rts.Comm) bindLane {
	ln := bindLane{comm: c, free: make(chan struct{}, 1)}
	ln.free <- struct{}{}
	return ln
}

// acquireLane claims the next lane in the deterministic round-robin order,
// failing with ErrBusy when that lane is still carrying an invocation. The
// cursor advances even on failure so all threads stay in lockstep provided
// they observe the SPMD discipline (same calls, same order, at most
// PipelineDepth outstanding).
func (b *Binding) acquireLane() (*bindLane, error) {
	b.laneMu.Lock()
	ln := &b.lanes[b.laneSeq%uint64(len(b.lanes))]
	b.laneSeq++
	b.laneMu.Unlock()
	select {
	case <-ln.free:
		b.inflight.Add(1)
		return ln, nil
	default:
		return nil, ErrBusy
	}
}

// releaseLane returns a lane to the pool. Callers must release before
// completing the invocation's future, so that a caller who has observed
// completion can immediately issue the next invocation.
func (b *Binding) releaseLane(ln *bindLane) {
	b.inflight.Add(-1)
	ln.free <- struct{}{}
}

// PipelineDepth reports the number of lanes this binding was built with.
func (b *Binding) PipelineDepth() int { return len(b.lanes) }

// SPMDBind collectively binds all the computing threads of comm to the named
// SPMD object, resolving the name through the PARDIS naming domain at
// nameServer. It is the paper's _spmd_bind. Thread 0 resolves and every thread
// learns the outcome in one share: a failure — name server unreachable, name
// unbound (the naming.RepoNotFound user exception), wrong type — is the same
// error on every thread, a user or system exception keeping its type.
func SPMDBind(comm *rts.Comm, name, nameServer string, opts ...BindOptions) (*Binding, error) {
	var o BindOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	shared, err := share(comm, func(e *cdr.Encoder) error {
		cli := o.newClient()
		defer cli.Close()
		ref, err := naming.NewResolver(cli, nameServer).Resolve(name, o.TypeID)
		if err != nil {
			return err
		}
		e.WriteRaw([]byte(ref.String()))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: binding %q: %w", name, err)
	}
	ref, err := orb.ParseIOR(string(shared))
	if err != nil {
		return nil, err
	}
	return SPMDBindRef(comm, ref, o)
}

// SPMDBindRef is SPMDBind for a reference obtained out of band (a
// stringified IOR passed between processes). Collective: thread 0 asks the
// object to describe itself and shares the operation table, or the error that
// took its place — OBJECT_NOT_EXIST from an object that is gone, TRANSIENT
// from one shedding load — which every thread then returns as that exception.
func SPMDBindRef(comm *rts.Comm, ref orb.IOR, opts ...BindOptions) (_ *Binding, err error) {
	var o BindOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if ref.Threads < 1 {
		return nil, ErrNotSPMD
	}
	bindStart := time.Now()
	engine, err := comm.Dup()
	if err != nil {
		return nil, err
	}
	ce := o.StreamChunkElems
	if ce <= 0 {
		ce = DefaultStreamChunkElems
	}
	b := &Binding{
		comm:       engine,
		ref:        ref,
		method:     o.Method,
		rec:        o.Trace,
		chunkElems: ce,
		comp:       o.Compression & zcodec.Supported,
		policy:     o.CompressionPolicy,
		idempotent: o.Sharding.Idempotent,
		refEpoch:   uint32(ref.Epoch),
	}
	// A reference with no profile fails the describe below, on every thread.
	b.addrs, _ = ref.ProfileAddrs()
	if o.ShareConnection {
		b.sharedKey = o.clientKey()
		b.client = sharedClients.Acquire(b.sharedKey, func() *orb.Client {
			cli := o.newClient()
			cli.Principal = "spmd-client/shared"
			return cli
		})
	} else {
		b.client = o.newClient()
		b.client.Principal = fmt.Sprintf("spmd-client/%d", engine.Rank())
	}
	for _, p := range ref.Narrowed() {
		b.targets = append(b.targets, target{client: b.client, ref: p})
	}
	// A failed bind gives its client back: the pool reference of a shared
	// one is dropped, a private one closed.
	defer func() {
		if err != nil {
			b.Close()
		}
	}()

	// Thread 0 fetches the interface description; everyone shares it.
	table, err := share(engine, func(e *cdr.Encoder) error {
		reply, err := b.client.Invoke(ref, describeOp, orb.NewArgEncoder().Bytes(), false)
		if err != nil {
			return err
		}
		e.WriteRaw(reply)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: describing object: %w", err)
	}
	d, err := orb.ArgDecoder(table)
	if err != nil {
		return nil, err
	}
	descs, err := decodeOpTable(d)
	if err != nil {
		return nil, err
	}
	b.ops = make(map[string]OpDesc, len(descs))
	for _, desc := range descs {
		b.ops[desc.Name] = desc
	}
	depth := o.PipelineDepth
	if depth < 1 {
		depth = 1
	}
	if depth > maxPipelineDepth {
		depth = maxPipelineDepth
	}
	// Lane 0 rides the engine communicator; the extra lanes each get a
	// duplicated context, allocated in one collective round. Every rank
	// clamps depth from the shared options identically, so the Dups call
	// count agrees.
	b.lanes = make([]bindLane, 1, depth)
	b.lanes[0] = newLane(engine)
	if depth > 1 {
		extra, err := engine.Dups(depth - 1)
		if err != nil {
			return nil, err
		}
		for _, c := range extra {
			b.lanes = append(b.lanes, newLane(c))
		}
	}
	if o.Metrics != nil {
		b.inflight = o.Metrics.Gauge("core.pipeline_inflight")
		b.compSkipped = o.Metrics.Counter("core.compress.skipped_total")
	}
	if o.Method == Multiport && !ref.Multiport() {
		return nil, ErrNoMultiport
	}
	// The bind is traced as a phase of invocation 0, the token no call carries.
	(&invocation{b: b, comm: engine}).phase(obs.PhaseBind, bindStart, time.Since(bindStart))
	return b, nil
}

// Bind is the paper's non-collective _bind: it gives the calling thread its
// own independent binding using the non-distributed mapping (a private
// single-thread world, so the shared collective machinery degenerates to
// local operations). Different threads of a parallel client can Bind to
// different objects and invoke them concurrently.
func Bind(name, nameServer string, opts ...BindOptions) (*Binding, error) {
	w := rts.NewWorld(1)
	b, err := SPMDBind(w.Comm(0), name, nameServer, opts...)
	if err != nil {
		w.Close()
		return nil, err
	}
	return b, nil
}

// BindRef is Bind for an out-of-band reference.
func BindRef(ref orb.IOR, opts ...BindOptions) (*Binding, error) {
	w := rts.NewWorld(1)
	b, err := SPMDBindRef(w.Comm(0), ref, opts...)
	if err != nil {
		w.Close()
		return nil, err
	}
	return b, nil
}

// Ref returns the bound object's reference.
func (b *Binding) Ref() orb.IOR { return b.ref }

// Comm returns the binding's engine communicator.
func (b *Binding) Comm() *rts.Comm { return b.comm }

// Ops returns the bound object's operation descriptions, keyed by name.
func (b *Binding) Ops() map[string]OpDesc { return b.ops }

// Close releases this thread's client connections: a private client is
// closed, a shared one has its pool reference dropped (the last sharer's
// Close closes it). Local, idempotent.
func (b *Binding) Close() {
	if b.sharedKey != "" {
		sharedClients.Release(b.sharedKey)
		b.sharedKey = ""
	} else {
		b.client.Close()
	}
	// A frame that reached an idle lane's sink after its invocation drained it
	// goes back to the pool with the lane; a busy lane's invocation drains its
	// own.
	for i := range b.lanes {
		ln := &b.lanes[i]
		select {
		case <-ln.free:
			if ln.sink.ch != nil {
				drainData(ln.sink.ch)
			}
			ln.free <- struct{}{}
		default:
		}
	}
}

// scalarEncoder is a convenience for building the non-distributed argument
// payload of an invocation.
func ScalarEncoder() *cdr.Encoder { return orb.NewArgEncoder() }

// ScalarDecoder opens a reply's scalar results.
func ScalarDecoder(payload []byte) (*cdr.Decoder, error) { return orb.ArgDecoder(payload) }
