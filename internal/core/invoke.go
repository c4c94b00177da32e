package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
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
	// Pack is the time spent marshalling the chunks this thread sources, one
	// step of the schedule at a time into the slot it is written from
	// (multi-port), or the request header (centralized, thread 0).
	Pack time.Duration
	// SendRecv spans the remote exchange: request out to reply in.
	SendRecv time.Duration
	// Unpack is the direct back leg as this thread saw it: awaiting and storing
	// the result chunks the schedule addresses to it (multi-port).
	Unpack time.Duration
	// Barrier is the post-invocation synchronization (multi-port).
	Barrier time.Duration
}

// shape is how the legs of an invocation move its distributed-argument data.
// The one collective sequence (invoke here, processCall on the server) runs a
// forward and a back leg around the request/reply exchange, both of the
// method's shape. A centralized leg is one walk (sendChunks / recvChunks) that
// is placed by itself (legChunkElems) — in the message, or framed as chunked
// Data messages beside it: the client places the forward leg, from the In/InOut
// lengths every SPMD thread passes identically, the server the back leg, from
// the final result lengths, within what the client offered.
type shape uint8

const (
	shapeCentral shape = iota // through the communicating threads, which gather and scatter (centralized)
	shapeDirect               // chunked Data messages between the owning threads (multi-port)
)

// invocation is what invoke hands the legs of one collective invocation on
// one thread. It lives on invoke's stack.
type invocation struct {
	b      *Binding
	comm   *rts.Comm // the lane's: every collective of the invocation rides it
	token  uint32    // the attempt's; doubles as the trace id client and server spans share
	op     string
	args   []DistArg
	desc   OpDesc
	sh     shape
	timing *Timing

	// The profile the attempt was routed to: every leg resolves its
	// connections against it, and thread 0 exchanges with addr, its primary.
	t      *target
	addr   string
	served int32 // 1-based shard the attempt was routed to; 0 without a shard key

	sink *sink // the lane's: what the server addresses to this thread beside the reply
	// Thread 0's request/reply exchange: its outcome, and the channel that
	// delivers it when the forward leg launched the request beside the data.
	reply   callResult
	replyCh chan callResult
	steps   cdr.Decoder // thread 0: the reply past its header, where a back leg placed in the message has its steps
	ce      int         // the header's chunk size: the framed forward leg's, or what both direct legs start from; 0 for a leg in the message
	offer   int         // the chunk size results may stream back in; 0 keeps them in the reply
	mask    uint8       // framed forward leg: the compression mask thread 0 picked for it
}

// legSeq is argument i as one centralized leg carries it: nil when its
// direction is skip (Out on the forward leg, In on the back leg).
func (iv *invocation) legSeq(i int, skip Dir) dseq.Transferable {
	if iv.args[i].Dir == skip {
		return nil
	}
	return iv.args[i].Seq
}

// phase closes one phase as this thread observed it: dur goes into the field
// of the caller's Timing the phase maps to, when one is collected, and into a
// span — a chunk send's with the mask in effect, the exchange's with the shard
// that served — when the binding traces.
func (iv *invocation) phase(ph obs.Phase, start time.Time, dur time.Duration) {
	if t := iv.timing; t != nil {
		switch ph {
		case obs.PhaseInvoke:
			t.Total = dur
		case obs.PhaseGather:
			t.Gather = dur
		case obs.PhaseScatter:
			t.Scatter = dur
		case obs.PhasePack:
			t.Pack = dur
		case obs.PhaseSendRecv:
			t.SendRecv = dur
		case obs.PhaseUnpack:
			t.Unpack = dur
		case obs.PhaseBarrier:
			t.Barrier = dur
		}
	}
	if iv.b.rec == nil {
		return
	}
	sp := obs.Span{Trace: uint64(iv.token), Phase: ph, Rank: int32(iv.comm.Rank()), Start: start.UnixNano(), Dur: int64(dur)}
	switch ph {
	case obs.PhaseChunkSend:
		sp.Codec = int32(iv.mask)
	case obs.PhaseSendRecv:
		sp.Shard = iv.served
	}
	iv.b.rec.Record(sp)
}

// launch starts thread 0's exchange beside the forward leg's data; invoke
// collects the outcome from replyCh once the leg is done.
func (iv *invocation) launch(payload []byte) {
	client, addr, key, op, ch := iv.b.client, iv.addr, iv.t.ref.Key, iv.op, make(chan callResult, 1)
	iv.replyCh = ch
	go func() {
		out, err := client.InvokeAddr(addr, key, op, payload, false)
		ch <- callResult{reply: out, err: err}
	}()
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

// InvokeSharded is Invoke with a shard key: the invocation goes to the shard
// group the key's consistent hash picks among the profiles of the binding's
// reference, and on to the ring successors as BindOptions.Sharding allows,
// whatever its transfer method. Every SPMD thread must pass the same shardKey;
// only the communicating thread consults it. Derive key-range keys with
// shard.RangeKey.
func (b *Binding) InvokeSharded(op string, shardKey, scalars []byte, args []DistArg) ([]byte, error) {
	return b.invokeBlocking(b.method, op, shardKey, scalars, args, nil)
}

// InvokeMethod is Invoke with an explicit transfer method and optional
// timing collection.
func (b *Binding) InvokeMethod(method Method, op string, scalars []byte, args []DistArg, timing *Timing) ([]byte, error) {
	return b.invokeBlocking(method, op, nil, scalars, args, timing)
}

// invokeBlocking runs one invocation on the next lane, on the caller's thread.
func (b *Binding) invokeBlocking(method Method, op string, shardKey, scalars []byte, args []DistArg, timing *Timing) ([]byte, error) {
	ln, err := b.acquireLane()
	if err != nil {
		return nil, err
	}
	defer b.releaseLane(ln)
	return b.invoke(ln, method, op, shardKey, scalars, args, timing)
}

// backPhase names, per shape, the phase the back leg is recorded under.
var backPhase = [...]obs.Phase{shapeCentral: obs.PhaseScatter, shapeDirect: obs.PhaseUnpack}

// invoke runs one collective invocation on the given lane: the paper's client
// side of §3.2 and §3.3 alike, which differ only in the two legs that move the
// argument data. Every collective in it (token agreement, the legs' gathers
// and scatters, meta share, error agreement) rides the lane's communicator, so
// invocations on different lanes overlap without their traffic interleaving.
//
// The function is a fixed collective skeleton: every thread executes the same
// sequence of collectives no matter where its local work fails. Local errors
// are captured and fed into the agreements instead of returned early, so a
// thread whose data connection was cut mid-frame cannot strand the others in
// a collective they entered and it skipped.
func (b *Binding) invoke(ln *bindLane, method Method, op string, shardKey, scalars []byte, args []DistArg, timing *Timing) ([]byte, error) {
	comm := ln.comm
	start := time.Now()
	if timing != nil {
		*timing = Timing{}
	}
	iv := invocation{b: b, comm: comm, op: op, args: args, timing: timing}
	var ok bool
	if iv.desc, ok = b.ops[op]; !ok {
		return nil, fmt.Errorf("%w: unknown operation %q", ErrArgMismatch, op)
	}
	if len(args) != len(iv.desc.Args) {
		return nil, fmt.Errorf("%w: %s takes %d distributed args, got %d", ErrArgMismatch, op, len(iv.desc.Args), len(args))
	}
	for i, a := range args {
		if a.Seq == nil {
			return nil, fmt.Errorf("%w: arg %d is nil", ErrArgMismatch, i)
		}
		if a.Dir != iv.desc.Args[i].Dir {
			return nil, fmt.Errorf("%w: arg %d is %v, want %v", ErrArgMismatch, i, a.Dir, iv.desc.Args[i].Dir)
		}
		if a.Seq.ElemName() != iv.desc.Args[i].Elem {
			return nil, fmt.Errorf("%w: arg %d has element type %q, want %q", ErrArgMismatch, i, a.Seq.ElemName(), iv.desc.Args[i].Elem)
		}
	}
	if method != Centralized && method != Multiport {
		return nil, fmt.Errorf("core: unknown method %v", method)
	}
	if method == Multiport && !b.ref.Multiport() {
		return nil, ErrNoMultiport
	}
	// Place the forward leg, and offer a stream for the back leg if there are
	// results to take.
	if method == Multiport {
		iv.sh, iv.ce = shapeDirect, b.chunkElems
	} else {
		iv.ce = legChunkElems(b.chunkElems, len(args), func(i int) int { return seqLen(iv.legSeq(i, Out)) })
		if iv.desc.results() {
			iv.offer = b.chunkElems
		}
	}
	// A framed forward leg — every direct one, a centralized one placed so —
	// sends its data beside the request, which thread 0 launches ahead of it; a
	// leg in the message is part of the exchange.
	framed := iv.ce != 0
	me := comm.Rank()
	defer func() { iv.phase(obs.PhaseInvoke, start, time.Since(start)) }()

	// What the server sends beside the reply — result chunks to thread 0,
	// direct moves to every thread — lands in the lane's sink, registered under
	// (token, thread) for as long as an attempt runs; whatever is still in it
	// when the invocation ends goes back to the pool.
	sinks := iv.sh == shapeDirect || (iv.offer != 0 && me == 0)
	if sinks {
		iv.sink = ln.dataSink()
		defer drainData(iv.sink.ch)
	}

	// Thread 0 walks the reference's profiles, and each attempt — both legs and
	// the exchange — goes to the one it picked. Its own outcome of the attempt
	// is what the walk judges; an attempt whose forward leg or exchange ends in
	// an agreed error goes back to the pick, which names the next profile, or
	// the error the invocation ends with when the walk stops. A re-run is whole
	// and under a fresh token, and the back leg has not begun, so no result has
	// been written.
	var (
		route orb.Route
		stop  error        // thread 0: the error the invocation ends with, once the walk stops
		rh    *replyHeader // the attempt's reply header, as thread 0 received it
	)
	if me == 0 {
		route = b.client.Route(b.ref, b.addrs, orb.InvokeOptions{ShardKey: shardKey, Idempotent: b.idempotent})
	}
	for {
		if err := iv.pick(&route, stop, shardKey != nil); err != nil {
			return nil, err
		}
		if sinks {
			b.client.RegisterDataSink(iv.t.ref, iv.token, uint32(me), iv.sink.ch)
		}

		// Forward leg: the header from thread 0 — first and alone, as §3.3
		// prescribes, so concurrent clients contend only at the communicating
		// thread — and the In/InOut data.
		fwdStart := time.Now()
		iv.reply, iv.replyCh = callResult{}, nil
		var fwdErr error
		switch iv.sh {
		case shapeCentral:
			fwdErr = iv.sendCentral(scalars)
		case shapeDirect:
			fwdErr = iv.sendDirect(scalars)
		}

		// The communicating thread collects the reply (bounded by the client
		// timeout even when another thread's sends failed and the server never
		// answers), or says why the request never left.
		if me == 0 {
			if iv.replyCh != nil {
				iv.reply = <-iv.replyCh
			}
			// Thread 0's outcome of the attempt: the exchange's, or its leg's.
			var err error
			if iv.reply.err = cmp.Or(iv.reply.err, fwdErr); iv.reply.err == nil {
				rh, err = iv.openReply()
			}
			fwdErr = cmp.Or(fwdErr, iv.reply.err, err)
		}
		if framed {
			iv.phase(obs.PhaseSendRecv, fwdStart, time.Since(fwdStart))
		}
		// One outcome per attempt: thread 0's reaches everyone. A send leg in
		// the message is collectives only: what fails it reaches thread 0, which
		// then sends nothing and shares why. A chunk write or a direct send
		// fails on one thread alone, so on a framed leg every thread's error
		// goes up first, and the lowest failing thread's is the outcome.
		if err := iv.shareReply(&rh, fwdErr, framed); framed || fwdErr == nil {
			fwdErr = err
		}
		if me == 0 {
			if again, _ := route.Done(iv.reply.err); fwdErr != nil && !again {
				stop = fwdErr
			}
		}
		if fwdErr == nil {
			break
		}
		if sinks {
			b.client.UnregisterDataSink(iv.token, uint32(me))
		}
	}
	if sinks {
		defer b.client.UnregisterDataSink(iv.token, uint32(me))
	}

	// Back leg: size the results as the server reported them, then move the
	// Out/InOut data back the way the server placed it — a chunk size in a
	// centralized reply means the results streamed ahead of it. The legs' own
	// collectives keep the threads in step on success; the trailing agreement
	// turns a thread-local failure (a resize, a bad payload, a lost return
	// flow) into one error seen identically everywhere instead of a divergent
	// early return.
	backStart := time.Now()
	var backErr error
	for i, a := range args {
		if a.Dir == Out {
			backErr = a.Seq.ResizeAlloc(rh.Args[i].Length)
		} else if a.Dir == InOut && rh.Args[i].Length != a.Seq.Len() {
			backErr = fmt.Errorf("%w: inout arg %d length %d from server, have %d", ErrBadHeader, i, rh.Args[i].Length, a.Seq.Len())
		}
		if backErr != nil {
			break
		}
	}
	if backErr == nil {
		switch iv.sh {
		case shapeCentral:
			backErr = iv.recvCentral(int(rh.ChunkElems))
		case shapeDirect:
			backErr = iv.recvDirect()
		}
	}
	iv.phase(backPhase[iv.sh], backStart, time.Since(backStart))

	// Post-invocation synchronization (the t_barrier of Table 2), fused with
	// the error agreement so a thread whose return flows failed cannot leave
	// the others in a hung barrier. A centralized back leg without results
	// moves nothing and cannot fail, so no thread has anything to agree on.
	if iv.sh == shapeCentral && !iv.desc.results() {
		return rh.Scalars, nil
	}
	barrierStart := time.Now()
	_, agreed := agree(comm, backErr, okOutcome)
	if iv.sh == shapeDirect {
		iv.phase(obs.PhaseBarrier, barrierStart, time.Since(barrierStart))
	}
	if agreed != nil {
		return nil, agreed
	}
	return rh.Scalars, nil
}

// pick is the token agreement of one attempt: thread 0 takes the next profile
// of the walk and broadcasts it beside a fresh token and the forward leg's
// compression mask, and every thread routes its legs to that profile. Once the
// walk has stopped (stop) or has no profile left, thread 0 broadcasts the error
// the invocation ends with instead, which every thread returns.
func (iv *invocation) pick(route *orb.Route, stop error, keyed bool) error {
	var p []byte
	if iv.comm.Rank() == 0 {
		idx, addr, err := -1, "", stop
		if err == nil {
			idx, addr, err = route.Next()
		}
		if err != nil {
			p = encodeOutcome(func(*cdr.Encoder) error { return err })
		} else {
			// A clean outcome, then the token, the profile and the mask.
			iv.addr, p = addr, append(make([]byte, 0, len(okOutcome)+9), okOutcome...)
			p = binary.NativeEndian.AppendUint32(binary.NativeEndian.AppendUint32(p, tokenCounter.Add(1)), uint32(idx))
			p = append(p, iv.fwdMask(&iv.b.targets[idx]))
		}
	}
	p, err := iv.comm.Bcast(0, p)
	if err != nil {
		return err
	}
	if len(p) != len(okOutcome)+9 || !bytes.HasPrefix(p, okOutcome) {
		if _, err = openOutcome(p); err == nil {
			err = fmt.Errorf("%w: token agreement", ErrBadHeader)
		}
		return err
	}
	p = p[len(okOutcome):]
	idx := binary.NativeEndian.Uint32(p[4:])
	iv.token, iv.t, iv.mask = binary.NativeEndian.Uint32(p), &iv.b.targets[idx], p[8]
	if keyed {
		iv.served = int32(idx) + 1
	}
	return nil
}

// fwdMask is thread 0's compression mask for the forward leg on profile t: the
// binding's when the leg is framed, unless the Auto policy vetoes it on the
// profile's data connection.
func (iv *invocation) fwdMask(t *target) uint8 {
	b := iv.b
	if iv.ce == 0 || b.comp == 0 {
		return 0
	}
	mask := legMask(b.comp, b.policy, func() float64 {
		conn, err := t.dataConn(0)
		if err != nil {
			return 0
		}
		return conn.WriteBandwidth()
	})
	if mask == 0 {
		b.compSkipped.Inc()
	}
	return mask
}

// newHeader builds the invocation header thread 0 sends: the client's layout
// for every argument it supplies, its template for every result it expects.
func (iv *invocation) newHeader(method Method, scalars []byte) *invocationHeader {
	h := &invocationHeader{
		Op: iv.op, Method: method, Token: iv.token, ChunkElems: uint32(iv.ce), ResultChunkElems: uint32(iv.offer),
		ClientRanks: iv.comm.Size(), Epoch: iv.b.refEpoch, Scalars: scalars,
		Args: make([]headerArg, len(iv.args)),
	}
	for i, a := range iv.args {
		h.Args[i] = headerArg{Dir: a.Dir, Elem: a.Seq.ElemName()}
		if a.Dir == Out {
			h.Args[i].Spec = a.Seq.Spec()
		} else {
			h.Args[i].Layout = a.Seq.Layout()
		}
	}
	return h
}

// openReply opens thread 0's reply, into iv.steps, as decodeReplyHeader reads
// it for the request sent, and refuses one that does not describe the
// arguments sent or that carries, after its header, anything but the steps of a
// back leg placed in the message (checkSteps). Those stay with thread 0, in
// iv.steps.
func (iv *invocation) openReply() (*replyHeader, error) {
	direct := iv.sh == shapeDirect
	if err := orb.OpenArgs(&iv.steps, iv.reply.reply); err != nil {
		return nil, err
	}
	rh, err := decodeReplyHeader(&iv.steps, iv.offer, direct)
	if err != nil {
		return nil, err
	}
	if len(rh.Args) != len(iv.args) {
		return nil, fmt.Errorf("%w: reply describes %d args, sent %d", ErrBadHeader, len(rh.Args), len(iv.args))
	}
	return rh, checkSteps(iv.steps, iv.desc.Args, In, direct || rh.ChunkElems != 0)
}

// shareReply makes thread 0's outcome of the attempt every thread's: the reply
// header as it arrived — the bytes iv.steps has read — or its local error in
// its place; the other threads decode the header into rh. Gathered, every
// thread's local error goes up first and the lowest failing thread's takes
// that place (agree); else it is one broadcast (share).
func (iv *invocation) shareReply(rh **replyHeader, local error, gather bool) error {
	produce := func(e *cdr.Encoder) error {
		e.WriteRaw(iv.steps.Consumed())
		return local
	}
	var p []byte
	var err error
	if !gather {
		p, err = share(iv.comm, produce)
	} else {
		clean := okOutcome
		if iv.comm.Rank() == 0 && local == nil {
			clean = encodeOutcome(produce)
		}
		p, err = agree(iv.comm, local, clean)
	}
	if err != nil || iv.comm.Rank() == 0 {
		return err
	}
	var d cdr.Decoder
	if err = orb.OpenArgs(&d, p); err == nil {
		*rh, err = decodeReplyHeader(&d, iv.offer, iv.sh == shapeDirect)
	}
	return err
}
