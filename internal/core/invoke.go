package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/wire"
)

// Timing records where a blocking invocation spent its time, as observed by
// the calling thread (the paper's Tables 1 and 2 report the analogous
// server- and client-side phases measured on dedicated hardware; the
// discrete-event models in internal/exp reproduce that full breakdown).
type Timing struct {
	Total time.Duration
	// Gather is the time spent collecting distributed arguments at the
	// communicating thread (centralized method only).
	Gather time.Duration
	// Scatter is the time spent distributing results from the
	// communicating thread (centralized method only).
	Scatter time.Duration
	// Pack is the time spent marshalling this thread's chunks (multi-port)
	// or the full argument payload (centralized, thread 0).
	Pack time.Duration
	// SendRecv spans the remote exchange: request out to reply in.
	SendRecv time.Duration
	// Unpack is the time spent storing inbound result chunks (multi-port).
	Unpack time.Duration
	// Barrier is the post-invocation synchronization (multi-port).
	Barrier time.Duration
}

// span records one phase of invocation token as observed by this thread.
// The token doubles as the trace id: it is what the wire-level trace-context
// extension carries, so client and server spans of one invocation share a key.
func (b *Binding) span(token uint32, ph obs.Phase, start time.Time) {
	if b.rec == nil {
		return
	}
	b.rec.Record(obs.Span{Trace: uint64(token), Phase: ph, Rank: int32(b.comm.Rank()),
		Start: start.UnixNano(), Dur: int64(time.Since(start))})
}

// spanDur is span for phases whose duration is accumulated piecewise (the
// multi-port pack time) rather than spanning one contiguous interval.
func (b *Binding) spanDur(token uint32, ph obs.Phase, start time.Time, dur time.Duration) {
	if b.rec == nil {
		return
	}
	b.rec.Record(obs.Span{Trace: uint64(token), Phase: ph, Rank: int32(b.comm.Rank()),
		Start: start.UnixNano(), Dur: int64(dur)})
}

// spanCodec is span carrying the negotiated wire-compression mask in effect
// for the phase (0 when the transfer ran raw).
func (b *Binding) spanCodec(token uint32, ph obs.Phase, start time.Time, mask uint8) {
	if b.rec == nil {
		return
	}
	b.rec.Record(obs.Span{Trace: uint64(token), Phase: ph, Rank: int32(b.comm.Rank()),
		Start: start.UnixNano(), Dur: int64(time.Since(start)), Codec: int32(mask)})
}

// spanShard is span carrying the 1-based shard attribute: which shard group
// served the phase (0 when the invocation was not shard-routed).
func (b *Binding) spanShard(token uint32, ph obs.Phase, start time.Time, shard int32) {
	if b.rec == nil {
		return
	}
	b.rec.Record(obs.Span{Trace: uint64(token), Phase: ph, Rank: int32(b.comm.Rank()),
		Start: start.UnixNano(), Dur: int64(time.Since(start)), Shard: shard})
}

// wireInvoke performs rank 0's request/reply exchange for one invocation,
// shard-routing it when the binding has sharding enabled and the invocation
// carries a shard key. It returns the reply payload and the 1-based index of
// the shard that served (0 when the primary-first path handled it).
func (b *Binding) wireInvoke(op string, payload, shardKey []byte) ([]byte, int32, error) {
	if b.sharding.Enabled && len(shardKey) > 0 {
		out, idx, err := b.client.InvokeSharded(b.ref, op, payload, orb.InvokeOptions{
			ShardKey: shardKey, Idempotent: b.sharding.Idempotent,
		})
		return out, int32(idx) + 1, err
	}
	out, err := b.client.Invoke(b.ref, op, payload, false)
	return out, 0, err
}

// tokenCounter seeds invocation tokens; the random base makes collisions
// between concurrent client processes unlikely.
var tokenCounter atomic.Uint32

func init() {
	tokenCounter.Store(rand.Uint32())
}

// Invoke performs a blocking collective invocation using the binding's
// default transfer method. scalars is the marshalled non-distributed
// argument payload (build it with ScalarEncoder); args lists the distributed
// arguments in the operation's declaration order. It returns the reply's
// scalar payload (open it with ScalarDecoder). All threads of the binding
// must call Invoke with equal scalar payloads and compatible sequences.
func (b *Binding) Invoke(op string, scalars []byte, args []DistArg) ([]byte, error) {
	return b.InvokeMethod(b.method, op, scalars, args, nil)
}

// InvokeSharded is Invoke routed by consistent hash of shardKey across the
// shard groups behind the binding's reference (BindOptions.Sharding must be
// enabled, and the transfer method must be centralized — a shard owns all
// its endpoints, so multi-port flows cannot straddle the routing decision).
// Every SPMD thread must pass the same shardKey; only the communicating
// thread consults it. Derive key-range keys with shard.RangeKey.
func (b *Binding) InvokeSharded(op string, shardKey, scalars []byte, args []DistArg) ([]byte, error) {
	ln, err := b.acquireLane()
	if err != nil {
		return nil, err
	}
	defer b.releaseLane(ln)
	return b.invoke(ln, b.method, op, shardKey, scalars, args, nil)
}

// InvokeMethod is Invoke with an explicit transfer method and optional
// timing collection.
func (b *Binding) InvokeMethod(method Method, op string, scalars []byte, args []DistArg, timing *Timing) ([]byte, error) {
	ln, err := b.acquireLane()
	if err != nil {
		return nil, err
	}
	defer b.releaseLane(ln)
	return b.invoke(ln, method, op, nil, scalars, args, timing)
}

// invoke runs one collective invocation on the given lane. Every collective
// in the invocation (token agreement, gathers/scatters, meta share, error
// agreement) rides the lane's communicator, so invocations on different
// lanes overlap without their traffic interleaving.
func (b *Binding) invoke(ln *bindLane, method Method, op string, shardKey, scalars []byte, args []DistArg, timing *Timing) ([]byte, error) {
	comm := ln.comm
	start := time.Now()
	if timing != nil {
		*timing = Timing{}
		defer func() { timing.Total = time.Since(start) }()
	}
	desc, ok := b.ops[op]
	if !ok {
		return nil, fmt.Errorf("%w: unknown operation %q", ErrArgMismatch, op)
	}
	if len(args) != len(desc.Args) {
		return nil, fmt.Errorf("%w: %s takes %d distributed args, got %d", ErrArgMismatch, op, len(desc.Args), len(args))
	}
	for i, a := range args {
		if a.Seq == nil {
			return nil, fmt.Errorf("%w: arg %d is nil", ErrArgMismatch, i)
		}
		if a.Dir != desc.Args[i].Dir {
			return nil, fmt.Errorf("%w: arg %d is %v, want %v", ErrArgMismatch, i, a.Dir, desc.Args[i].Dir)
		}
		if a.Seq.ElemName() != desc.Args[i].Elem {
			return nil, fmt.Errorf("%w: arg %d has element type %q, want %q", ErrArgMismatch, i, a.Seq.ElemName(), desc.Args[i].Elem)
		}
	}
	if method == Multiport && !b.ref.Multiport() {
		return nil, ErrNoMultiport
	}
	if len(shardKey) > 0 && method != Centralized {
		// A shard is a whole server group: multi-port data flows target the
		// endpoints of one profile, so the transfer method cannot straddle
		// the per-invocation routing decision. (Uniform across threads —
		// every thread passes the same shardKey and method.)
		return nil, ErrShardMethod
	}

	// Agree on the invocation token.
	var tokenBytes []byte
	if comm.Rank() == 0 {
		e := cdr.NewEncoder(cdr.NativeOrder)
		e.WriteULong(tokenCounter.Add(1))
		tokenBytes = e.Bytes()
	}
	tokenBytes, err := comm.Bcast(0, tokenBytes)
	if err != nil {
		return nil, err
	}
	token, err := cdr.NewDecoder(tokenBytes, cdr.NativeOrder).ReadULong()
	if err != nil {
		return nil, err
	}
	defer b.span(token, obs.PhaseInvoke, start)

	switch method {
	case Centralized:
		// Streamed transfers ship chunk Data messages to the primary
		// profile's endpoints, so a shard-routed invocation takes the
		// whole-payload path (the request itself carries everything and
		// follows the ring).
		if len(shardKey) == 0 && b.streamEligible(args) {
			return b.invokeCentralizedStreamed(comm, token, op, scalars, args, desc, timing)
		}
		return b.invokeCentralized(comm, token, op, shardKey, scalars, args, desc, timing)
	case Multiport:
		return b.invokeMultiport(comm, token, op, scalars, args, desc, timing)
	default:
		return nil, fmt.Errorf("core: unknown method %v", method)
	}
}

// newHeader builds the invocation header thread 0 sends: the client's layout
// for every argument it supplies, its template for every result it expects.
func (b *Binding) newHeader(comm *rts.Comm, token uint32, op string, method Method, scalars []byte, args []DistArg) *invocationHeader {
	h := &invocationHeader{
		Op: op, Method: method, Token: token,
		ClientRanks: comm.Size(), Epoch: b.refEpoch, Scalars: scalars,
		Args: make([]headerArg, len(args)),
	}
	for i, a := range args {
		h.Args[i] = headerArg{Dir: a.Dir, Elem: a.Seq.ElemName()}
		if a.Dir == Out {
			h.Args[i].Spec = a.Seq.Spec()
		} else {
			h.Args[i].Layout = a.Seq.Layout()
		}
	}
	return h
}

// invokeCentralized implements the paper's §3.2 client side: synchronize,
// gather and marshal at the communicating thread, one request message, then
// scatter the results.
func (b *Binding) invokeCentralized(comm *rts.Comm, token uint32, op string, shardKey, scalars []byte, args []DistArg, desc OpDesc, timing *Timing) ([]byte, error) {
	// Thread 0 opens the request — header up to the argument list — and the
	// threads gather every In/InOut argument straight into it, so the bytes
	// the gather assembles are the bytes the transport writes. The gathers
	// run on the lane communicator so concurrent invocations on other lanes
	// cannot intercept the traffic.
	var (
		h *invocationHeader
		e *cdr.Encoder
	)
	if comm.Rank() == 0 {
		packStart := time.Now()
		h = b.newHeader(comm, token, op, Centralized, scalars, args)
		e = orb.NewArgEncoder()
		h.encodePrefix(e)
		if timing != nil {
			timing.Pack = time.Since(packStart)
		}
		b.span(token, obs.PhasePack, packStart)
	}
	gatherStart := time.Now()
	for i, a := range args {
		if e != nil {
			h.encodeArg(e, i)
		}
		if a.Dir == Out {
			continue
		}
		if err := gatherInto(comm, a.Seq, e); err != nil {
			return nil, err
		}
	}
	if timing != nil {
		timing.Gather = time.Since(gatherStart)
	}
	b.span(token, obs.PhaseGather, gatherStart)

	var meta invokeMeta
	if comm.Rank() == 0 {
		sendStart := time.Now()
		replyBytes, served, err := b.wireInvoke(op, e.Bytes(), shardKey)
		if timing != nil {
			timing.SendRecv = time.Since(sendStart)
		}
		b.spanShard(token, obs.PhaseSendRecv, sendStart, served)
		meta = metaFromReply(replyBytes, err, Centralized, false)
	}
	if err := shareMeta(comm, &meta); err != nil {
		return nil, err
	}
	if meta.err != nil {
		return nil, meta.err
	}

	// Scatter the results. The loop's own collectives keep the threads in
	// step on success; the trailing agreement turns any thread-local
	// failure (a result resize, a bad scatter payload) into one error seen
	// identically everywhere instead of a divergent early return.
	scatterStart := time.Now()
	scatterErr := func() error {
		for i, a := range args {
			if a.Dir == In {
				continue
			}
			if a.Dir == Out {
				if err := a.Seq.ResizeAlloc(meta.lengths[i]); err != nil {
					return err
				}
			}
			var data []byte
			if comm.Rank() == 0 {
				data = meta.datas[i]
			}
			if err := a.Seq.ScatterUnmarshalRange(comm, 0, 0, a.Seq.Len(), data); err != nil {
				return err
			}
		}
		return nil
	}()
	if timing != nil {
		timing.Scatter = time.Since(scatterStart)
	}
	b.span(token, obs.PhaseScatter, scatterStart)
	if agreed := agreeError(comm, scatterErr); agreed != nil {
		return nil, agreed
	}
	return meta.scalars, nil
}

// invokeMultiport implements the paper's §3.3 client side: the header is
// delivered centrally, the argument data flows directly between the owning
// threads, and the threads synchronize after the invocation.
//
// The function is a fixed collective skeleton: every thread executes the
// same sequence of collectives (shareMeta, then two agreeError exchanges)
// no matter where its local work fails. Local errors are captured and fed
// into the agreement instead of returned early, so a thread whose data
// connection was cut mid-frame cannot strand the others in a collective
// they entered and it skipped.
func (b *Binding) invokeMultiport(comm *rts.Comm, token uint32, op string, scalars []byte, args []DistArg, desc OpDesc, timing *Timing) ([]byte, error) {
	me := comm.Rank()
	cRanks := comm.Size()
	sRanks := b.ref.Threads

	sink := make(chan *wire.Data, bucketCapacity)
	b.client.RegisterDataSink(token, sink)
	defer b.client.UnregisterDataSink(token)

	type argPlan struct {
		serverLayout dist.Layout
		fwdMine      []dist.Move
	}
	plans := make([]argPlan, len(args))

	type replyResult struct {
		payload []byte
		err     error
	}
	replyCh := make(chan replyResult, 1)
	launched := false
	packTotal := time.Duration(0)
	sendStart := time.Now()

	// Forward phase (purely local): plan the flows, launch the header from
	// the communicating thread, attach for return flows, and send this
	// thread's chunks directly to their owning server threads.
	localErr := func() error {
		sendTargets := map[int]bool{}
		attachTargets := map[int]bool{}
		for i, a := range args {
			spec := desc.Args[i].specOrBlock()
			if a.Dir != Out {
				sl, err := spec.Layout(a.Seq.Len(), sRanks)
				if err != nil {
					return err
				}
				plans[i].serverLayout = sl
				moves, err := dist.Plan(a.Seq.Layout(), sl)
				if err != nil {
					return err
				}
				plans[i].fwdMine = dist.PlanBySource(moves, cRanks)[me]
				for _, m := range plans[i].fwdMine {
					sendTargets[m.DstRank] = true
				}
				if a.Dir == InOut {
					rev, err := dist.Plan(sl, a.Seq.Layout())
					if err != nil {
						return err
					}
					for _, m := range dist.PlanByDest(rev, cRanks)[me] {
						attachTargets[m.SrcRank] = true
					}
				}
			} else {
				// The result length is unknown; conservatively attach to every
				// server thread so any of them can reach us.
				for r := 0; r < sRanks; r++ {
					attachTargets[r] = true
				}
			}
		}

		// The communicating thread launches the request; the header travels
		// first and alone, as §3.3 prescribes, so concurrent clients contend
		// only at the communicating thread.
		if me == 0 {
			e := orb.NewArgEncoder()
			b.newHeader(comm, token, op, Multiport, scalars, args).encode(e)
			launched = true
			go func() {
				payload, err := b.client.Invoke(b.ref, op, e.Bytes(), false)
				replyCh <- replyResult{payload: payload, err: err}
			}()
		}

		// Attach to return-flow sources we are not already sending to.
		for r := range attachTargets {
			if sendTargets[r] {
				continue
			}
			attach := &wire.Data{RequestID: token, SrcRank: uint32(me), DstRank: uint32(r), Count: 0}
			if err := b.client.SendData(b.ref, attach); err != nil {
				return err
			}
		}

		for i, a := range args {
			if a.Dir == Out {
				continue
			}
			for _, m := range plans[i].fwdMine {
				packStart := time.Now()
				payload, err := a.Seq.MarshalRange(m.SrcOff, m.Len)
				packTotal += time.Since(packStart)
				if err != nil {
					return err
				}
				msg := &wire.Data{
					RequestID: token,
					ArgIndex:  uint32(i),
					SrcRank:   uint32(me),
					DstRank:   uint32(m.DstRank),
					DstOff:    uint64(m.DstOff),
					Count:     uint64(m.Len),
					Payload:   payload,
				}
				if err := b.client.SendData(b.ref, msg); err != nil {
					return err
				}
			}
		}
		return nil
	}()
	if timing != nil {
		timing.Pack = packTotal
	}
	b.spanDur(token, obs.PhasePack, sendStart, packTotal)

	// The communicating thread collects the reply (bounded by the client
	// timeout even when another thread's sends failed and the server never
	// answers); everyone shares it.
	var meta invokeMeta
	if me == 0 && launched {
		res := <-replyCh
		meta = metaFromReply(res.payload, res.err, Multiport, false)
	}
	if timing != nil {
		timing.SendRecv = time.Since(sendStart)
	}
	b.span(token, obs.PhaseSendRecv, sendStart)
	if err := shareMeta(comm, &meta); err != nil {
		return nil, err
	}
	phaseErr := localErr
	if phaseErr == nil {
		phaseErr = meta.err
	}
	if agreed := agreeError(comm, phaseErr); agreed != nil {
		return nil, agreed
	}

	// Receive the return flows (purely local; bounded by the client
	// timeout).
	unpackStart := time.Now()
	recvErr := func() error {
		for i, a := range args {
			if a.Dir == In {
				continue
			}
			var clientLayout dist.Layout
			var serverLayout dist.Layout
			if a.Dir == Out {
				if err := a.Seq.ResizeAlloc(meta.lengths[i]); err != nil {
					return err
				}
				clientLayout = a.Seq.Layout()
				spec := desc.Args[i].specOrBlock()
				sl, err := spec.Layout(meta.lengths[i], sRanks)
				if err != nil {
					return err
				}
				serverLayout = sl
			} else {
				clientLayout = a.Seq.Layout()
				serverLayout = plans[i].serverLayout
			}
			rev, err := dist.Plan(serverLayout, clientLayout)
			if err != nil {
				return err
			}
			mine := dist.PlanByDest(rev, cRanks)[me]
			if err := consumeMoves(sink, nil, b.client.Timeout, uint32(i), true, mine, a.Seq); err != nil {
				return err
			}
		}
		return nil
	}()
	if timing != nil {
		timing.Unpack = time.Since(unpackStart)
	}
	b.span(token, obs.PhaseUnpack, unpackStart)

	// Post-invocation synchronization (the t_barrier of Table 2), fused
	// with error agreement so a thread whose return flows failed cannot
	// leave the others in a hung barrier.
	barrierStart := time.Now()
	agreed := agreeError(comm, recvErr)
	if timing != nil {
		timing.Barrier = time.Since(barrierStart)
	}
	b.span(token, obs.PhaseBarrier, barrierStart)
	if agreed != nil {
		return nil, agreed
	}
	return meta.scalars, nil
}

// agreeError merges per-thread outcomes into one collective verdict: every
// thread contributes its local error (nil when clean) and all threads
// return the same agreed error, the lowest failing rank's. The
// gather+broadcast doubles as a synchronization point, which is what lets
// the invocation and upcall paths replace bare barriers with it: a faulted
// thread reports instead of disappearing, so no thread waits on a
// collective its peers will never enter.
// okOutcome is the pre-encoded "no error" outcome (encodeMetaErr of nil is
// the single metaOK octet). Agreements run several times per upcall on every
// thread, almost always on clean outcomes, so the success path shares these
// read-only bytes instead of encoding and decoding each time.
var okOutcome = []byte{metaOK}

func isOKOutcome(p []byte) bool { return len(p) == 1 && p[0] == metaOK }

func agreeError(comm *rts.Comm, local error) error {
	contrib := okOutcome
	if local != nil {
		e := cdr.NewEncoder(cdr.NativeOrder)
		encodeMetaErr(e, local)
		contrib = e.Bytes()
	}
	all, err := comm.Gather(0, contrib)
	if err != nil {
		return err
	}
	var payload []byte
	if comm.Rank() == 0 {
		var chosen error
		for r, p := range all {
			if isOKOutcome(p) {
				continue
			}
			rerr, derr := decodeMetaErr(cdr.NewDecoder(p, cdr.NativeOrder))
			if derr != nil {
				// Never return early here: the other threads are already
				// waiting in the broadcast below.
				rerr = fmt.Errorf("core: thread %d outcome undecodable: %v", r, derr)
			}
			if chosen == nil && rerr != nil {
				chosen = rerr
			}
		}
		if chosen == nil {
			payload = okOutcome
		} else {
			ec := cdr.NewEncoder(cdr.NativeOrder)
			encodeMetaErr(ec, chosen)
			payload = ec.Bytes()
		}
	}
	payload, err = comm.Bcast(0, payload)
	if err != nil {
		return err
	}
	if isOKOutcome(payload) {
		return nil
	}
	agreed, derr := decodeMetaErr(cdr.NewDecoder(payload, cdr.NativeOrder))
	if derr != nil {
		return derr
	}
	return agreed
}

// invokeMeta is the invocation outcome the communicating thread shares with
// the others.
type invokeMeta struct {
	err     error
	scalars []byte
	lengths []int
	datas   [][]byte // centralized only; not broadcast (thread 0 scatters)
}

func metaFromReply(payload []byte, err error, method Method, streamed bool) invokeMeta {
	if err != nil {
		return invokeMeta{err: err}
	}
	d, derr := orb.ArgDecoder(payload)
	if derr != nil {
		return invokeMeta{err: derr}
	}
	rh, derr := decodeReplyHeader(d, method, streamed)
	if derr != nil {
		return invokeMeta{err: derr}
	}
	m := invokeMeta{scalars: rh.Scalars, lengths: make([]int, len(rh.Args)), datas: make([][]byte, len(rh.Args))}
	for i, a := range rh.Args {
		m.lengths[i] = a.Length
		m.datas[i] = a.Data
	}
	return m
}

// shareMeta broadcasts thread 0's invocation outcome (status, scalar
// results, result lengths) to all threads over the invocation's lane
// communicator. The centralized data payloads stay at thread 0, which
// scatters them.
func shareMeta(comm *rts.Comm, m *invokeMeta) error {
	var payload []byte
	if comm.Rank() == 0 {
		e := cdr.NewEncoder(cdr.NativeOrder)
		encodeMetaErr(e, m.err)
		e.WriteOctets(m.scalars)
		e.WriteULong(uint32(len(m.lengths)))
		for _, l := range m.lengths {
			e.WriteULongLong(uint64(l))
		}
		payload = e.Bytes()
	}
	payload, err := comm.Bcast(0, payload)
	if err != nil {
		return err
	}
	if comm.Rank() == 0 {
		return nil
	}
	d := cdr.NewDecoder(payload, cdr.NativeOrder)
	m.err, err = decodeMetaErr(d)
	if err != nil {
		return err
	}
	if m.scalars, err = d.ReadOctets(); err != nil {
		return err
	}
	n, err := d.ReadULong()
	if err != nil {
		return err
	}
	m.lengths = make([]int, n)
	m.datas = make([][]byte, n)
	for i := range m.lengths {
		l, err := d.ReadULongLong()
		if err != nil {
			return err
		}
		m.lengths[i] = int(l)
	}
	return nil
}

// Error kinds shared between threads.
const (
	metaOK byte = iota
	metaUserExc
	metaSystemExc
	metaPlain
)

func encodeMetaErr(e *cdr.Encoder, err error) {
	if err == nil {
		e.WriteOctet(metaOK)
		return
	}
	var ue *orb.UserException
	if errors.As(err, &ue) {
		e.WriteOctet(metaUserExc)
		e.WriteString(ue.RepoID)
		e.WriteString(ue.Message)
		e.WriteOctets(ue.Payload)
		return
	}
	var se *orb.SystemException
	if errors.As(err, &se) {
		e.WriteOctet(metaSystemExc)
		e.WriteString(se.RepoID)
		e.WriteULong(se.Minor)
		e.WriteString(se.Message)
		return
	}
	e.WriteOctet(metaPlain)
	e.WriteString(err.Error())
}

func decodeMetaErr(d *cdr.Decoder) (error, error) {
	kind, err := d.ReadOctet()
	if err != nil {
		return nil, err
	}
	switch kind {
	case metaOK:
		return nil, nil
	case metaUserExc:
		var ue orb.UserException
		if ue.RepoID, err = d.ReadString(); err != nil {
			return nil, err
		}
		if ue.Message, err = d.ReadString(); err != nil {
			return nil, err
		}
		if ue.Payload, err = d.ReadOctets(); err != nil {
			return nil, err
		}
		return &ue, nil
	case metaSystemExc:
		var se orb.SystemException
		if se.RepoID, err = d.ReadString(); err != nil {
			return nil, err
		}
		if se.Minor, err = d.ReadULong(); err != nil {
			return nil, err
		}
		if se.Message, err = d.ReadString(); err != nil {
			return nil, err
		}
		return &se, nil
	case metaPlain:
		msg, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		return errors.New(msg), nil
	default:
		return nil, fmt.Errorf("%w: meta error kind %d", ErrBadHeader, kind)
	}
}
