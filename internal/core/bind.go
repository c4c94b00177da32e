package core

import (
	"fmt"
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
	// Transport, when set, configures the binding's connections (write
	// timeouts, fault-injection wrappers for chaos tests, frame hooks). Its
	// KeepaliveInterval covers control and multi-port data connections
	// alike, so a SIGKILL'd server rank surfaces as a prompt coherent error
	// through the collective error agreement instead of a data-timeout stall.
	Transport *transport.Options
	// Breaker is the per-endpoint circuit breaker policy applied when the
	// bound reference carries multiple replica profiles.
	Breaker orb.BreakerPolicy
	// Trace, when set, receives one span per invocation phase (bind, invoke,
	// gather, pack, sendrecv, scatter, unpack, barrier) as observed by this
	// thread, keyed by the invocation token — the key the server's object
	// phases carry too. It records spans only; nothing of it goes on the wire.
	Trace *obs.Recorder
	// Metrics, when set, receives the binding's client-side resilience
	// counters (see orb.Client.Metrics) and the count of request legs the
	// Auto policy sent raw ("core.compress.skipped_total").
	Metrics *obs.Registry
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

	// streamChunkElems is the chunk size, in elements, every bulk leg is cut
	// in. A centralized leg with an argument of at least two chunks — an
	// In/InOut one on the way out, an Out/InOut result on the way back — is
	// gathered, shipped and scattered chunk by chunk, overlapping collective
	// (un)marshalling with the wire; a smaller leg rides in the message — the
	// request or the reply — behind its header. A multi-port leg always moves
	// in chunks of this size between the owning threads (a piece of the plan
	// shorter than a chunk is one chunk). Either way the size is doubled until
	// the leg fits its receiver's buffer. 0 or negative means
	// DefaultStreamChunkElems; only tests set it.
	streamChunkElems int
}

// newClient builds an orb client configured per the options.
func (o BindOptions) newClient() *orb.Client {
	cli := orb.NewClient()
	cli.Timeout = o.Timeout
	cli.Transport = o.Transport
	cli.Metrics = o.Metrics
	cli.Breaker = o.Breaker
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
	rec    *obs.Recorder

	// lane carries the binding's one invocation in flight, on the engine
	// communicator. A client that wants two calls in flight binds twice: each
	// binding has an engine communicator of its own.
	lane bindLane

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
	// addresses, rendered once for every walk.
	targets []target
	addrs   []string

	// refEpoch is the membership epoch the bound reference carries (0 for
	// non-elastic objects). Invocation headers are tagged with it so a
	// request that lands on a stale or future epoch of an elastic object is
	// refused before any data transfer — the client never scatters against
	// the wrong shape.
	refEpoch uint32
}

// bindLane is what a binding's invocation in flight owns: the latch that
// admits it and the scratch it keeps from one call to the next.
type bindLane struct {
	free chan struct{} // holds one token when the lane is idle
	// sink is where the server's Data frames for the lane's invocation land
	// (orb.Client.RegisterDataSink), made by the first invocation that expects
	// any and kept, timer and all: an invocation registers it under its token,
	// and drains it when it ends. The lane's holder alone touches it.
	sink sink
	// request and response are the headers of the lane's invocation, thread
	// 0's request as encodeRequest fills it and the reply header every thread
	// decodes, valid for one invoke: the next one overwrites them.
	request  invocationHeader
	response replyHeader
	// enc is thread 0's request encoder, valid for one invoke: its exchange,
	// launched beside a framed leg or not, has written the request by the end.
	enc *cdr.Encoder
	// picks is the slab thread 0 renders its token broadcasts (pick) and its
	// reply headers (shareReply) in, each behind the last and never rewritten:
	// a thread that has yet to take one reads its own bytes, and the scalars a
	// call returns, a view of its reply header, outlive the next call. A full
	// slab is left to whoever still holds it.
	picks []byte
	// reply is the storage thread 0's exchange reads its reply into, valid for
	// one invoke and kept for the next (exchange).
	reply []byte
	// replies is where thread 0's launched exchange delivers its outcome. It
	// never holds a stale one: thread 0 takes the outcome of every attempt
	// that launched before the next can launch.
	replies   chan callResult
	fwd, back directLeg // what the lane's direct legs plan into
}

// pickBytes returns n bytes of the lane's slab no broadcast has used, in a
// fresh 4 KiB slab — hundreds of broadcasts — when the slab is full, or of
// their own when n is over a slab.
func (ln *bindLane) pickBytes(n int) []byte {
	if len(ln.picks)+n > cap(ln.picks) {
		if n > 4<<10 {
			return make([]byte, n)
		}
		ln.picks = make([]byte, 0, 4<<10)
	}
	m := len(ln.picks)
	ln.picks = ln.picks[:m+n]
	return ln.picks[m : m+n : m+n]
}

// keptReplyBytes bounds the reply storage a lane keeps between calls.
const keptReplyBytes = 64 << 10

// exchange is thread 0's request/reply round trip, its reply read into the
// lane's storage, which keeps what a reply grew it to up to keptReplyBytes: a
// reply that carried a larger back leg is let go with its call.
func (ln *bindLane) exchange(client *orb.Client, addr string, key []byte, op string, payload []byte) callResult {
	out, err := client.InvokeAddr(ln.reply[:0], addr, key, op, payload, false)
	if c := cap(out); c > cap(ln.reply) && c <= keptReplyBytes {
		ln.reply = out
	}
	return callResult{reply: out, err: err}
}

// dataSink returns the lane's sink. Its capacity is what lets a whole reply
// leg (maxStreamChunks) be written before the Reply that releases its reader.
func (ln *bindLane) dataSink() *sink {
	if ln.sink.ch == nil {
		ln.sink.ch = make(chan *wire.Data, bucketCapacity)
	}
	return &ln.sink
}

// acquireLane claims the binding's lane, failing with ErrBusy while it still
// carries an invocation.
func (b *Binding) acquireLane() error {
	select {
	case <-b.lane.free:
		return nil
	default:
		return ErrBusy
	}
}

// releaseLane frees the lane. Callers must release before completing the
// invocation's future, so that a caller who has observed completion can
// immediately issue the next invocation.
func (b *Binding) releaseLane() { b.lane.free <- struct{}{} }

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
	ce := o.streamChunkElems
	if ce <= 0 {
		ce = DefaultStreamChunkElems
	}
	b := &Binding{
		comm:       engine,
		lane:       bindLane{free: make(chan struct{}, 1), replies: make(chan callResult, 1)},
		ref:        ref,
		method:     o.Method,
		rec:        o.Trace,
		chunkElems: ce,
		comp:       o.Compression & zcodec.Supported,
		policy:     o.CompressionPolicy,
		refEpoch:   uint32(ref.Epoch),
	}
	b.lane.free <- struct{}{}
	// A reference with no profile fails the describe below, on every thread.
	b.addrs, _ = ref.ProfileAddrs()
	b.client = o.newClient()
	b.client.Principal = fmt.Sprintf("spmd-client/%d", engine.Rank())
	for _, p := range ref.Narrowed() {
		b.targets = append(b.targets, newTarget(b.client, p))
	}
	// A failed bind closes its client.
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
	if o.Metrics != nil {
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

// Close closes this thread's client and its connections. Local, idempotent.
func (b *Binding) Close() {
	b.client.Close()
	// A frame that reached an idle lane's sink after its invocation drained it
	// goes back to the pool with the lane; a busy lane's invocation drains its
	// own.
	select {
	case <-b.lane.free:
		if b.lane.sink.ch != nil {
			drainData(b.lane.sink.ch)
		}
		b.lane.free <- struct{}{}
	default:
	}
}

// scalarEncoder is a convenience for building the non-distributed argument
// payload of an invocation.
func ScalarEncoder() *cdr.Encoder { return orb.NewArgEncoder() }

// ScalarDecoder opens a reply's scalar results.
func ScalarDecoder(payload []byte) (*cdr.Decoder, error) { return orb.ArgDecoder(payload) }
