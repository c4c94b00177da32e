package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

// Directive kinds broadcast from the communicating thread to the others.
const (
	directiveCall byte = iota
	directiveStop
)

// Serve processes requests until an operation handler returns ErrStopServing
// or Close is called on thread 0. It must be called collectively by all the
// computing threads of the object — this is the paper's requirement that a
// request be "delivered to all the computing threads". Serve returns nil on
// an orderly stop.
func (o *Object) Serve() error {
	for {
		proceed, err := o.Poll(true)
		if err != nil {
			return err
		}
		if !proceed {
			return nil
		}
	}
}

// Poll processes at most one pending request, collectively. With block set
// it waits for a request (or stop); without it, it returns immediately when
// no request is queued — this is the hook that lets a busy server
// "interrupt its computation in order to process outstanding requests"
// (paper §2.1). The boolean result reports whether serving should continue.
func (o *Object) Poll(block bool) (bool, error) {
	if o.comm.Rank() == 0 {
		var call *pendingCall
		if block {
			// Priority select: requests already queued drain before a pending
			// resize ticket is honored, so in-flight collectives complete in
			// the old epoch (the quiesce phase sheds new arrivals upstream).
			select {
			case call = <-o.queue:
			default:
				select {
				case call = <-o.queue:
				case t := <-o.resizeCh:
					return o.serveResize(t)
				case <-o.stop:
				}
			}
		} else {
			select {
			case call = <-o.queue:
			case t := <-o.resizeCh:
				return o.serveResize(t)
			case <-o.stop:
			default:
			}
		}
		if call == nil {
			// Either stopping, or a non-blocking poll found nothing.
			stopping := false
			select {
			case <-o.stop:
				stopping = true
			default:
			}
			if !block && !stopping {
				// Tell the other threads there is nothing to do. A "none"
				// verdict reuses the stop directive space with a third value.
				if _, err := o.comm.Bcast(0, directiveNoneMsg); err != nil {
					return false, err
				}
				return true, nil
			}
			if _, err := o.comm.Bcast(0, directiveStopMsg); err != nil {
				return false, err
			}
			return false, nil
		}
		if o.rec != nil && call.enqueuedNS != 0 {
			o.rec.Record(obs.Span{Trace: uint64(call.token), Phase: obs.PhaseQueue, Rank: 0,
				Start: call.enqueuedNS, Dur: time.Now().UnixNano() - call.enqueuedNS})
		}
		// Broadcast the call to every thread, without the inline argument
		// data: that stays here, at the thread that scatters it.
		e := cdr.NewEncoder(cdr.NativeOrder)
		e.WriteOctet(directiveCall)
		h := call.header
		h.encodePrefix(e)
		for i := range h.Args {
			h.encodeArg(e, i)
			if h.inline(i) {
				e.WriteOctets(nil)
			}
		}
		if _, err := o.comm.Bcast(0, e.Bytes()); err != nil {
			call.replyCh <- callResult{err: &orb.SystemException{RepoID: orb.RepoInternal, Message: err.Error()}}
			return false, err
		}
		reply, stop, err := o.processCall(call.header)
		call.replyCh <- callResult{reply: reply, err: err}
		// Agree on whether to continue.
		verdict := 0
		if stop {
			verdict = 1
		}
		if _, err := o.comm.Bcast(0, verdictMsgs[verdict]); err != nil {
			return false, err
		}
		return !stop, nil
	}

	// Non-communicating threads follow thread 0's directives.
	dir, err := o.comm.Bcast(0, nil)
	if err != nil {
		return false, err
	}
	if len(dir) == 0 {
		return false, fmt.Errorf("%w: empty directive", ErrBadHeader)
	}
	switch dir[0] {
	case directiveStop:
		return false, nil
	case directiveNone:
		return true, nil
	case directiveResize:
		agreed := agreeError(o.comm, o.callResizeHook())
		_ = agreed // thread 0 reports the agreed outcome to the controller
		verdict, err := o.comm.Bcast(0, nil)
		if err != nil {
			return false, err
		}
		if len(verdict) == 1 && verdict[0] == 1 {
			// Snapshot committed: this epoch retires and Serve returns nil.
			return false, nil
		}
		// Aborted: resume serving in the old epoch.
		return true, nil
	case directiveCall:
		d := cdr.NewDecoder(dir, cdr.NativeOrder)
		if _, err := d.ReadOctet(); err != nil {
			return false, err
		}
		hdr, err := decodeInvocationHeader(d)
		if err != nil {
			return false, err
		}
		if _, _, err := o.processCall(hdr); err != nil {
			// Handler errors are reported through thread 0's reply; other
			// threads keep serving.
			_ = err
		}
		verdict, err := o.comm.Bcast(0, nil)
		if err != nil {
			return false, err
		}
		if len(verdict) == 1 && verdict[0] == 1 {
			return false, nil
		}
		return true, nil
	default:
		return false, fmt.Errorf("%w: directive %d", ErrBadHeader, dir[0])
	}
}

const directiveNone byte = 2

// directiveResize tells the computing threads to snapshot their live state
// for a membership change: each runs its onResize hook, the outcome is
// agreed collectively, and thread 0's follow-up verdict broadcast either
// retires the epoch (1: Serve returns nil everywhere) or resumes it (0: the
// resize aborted upstream and serving continues).
const directiveResize byte = 3

// Shared one-byte directive and verdict messages: the broadcast payloads are
// read-only everywhere, so every Poll round reuses these instead of
// allocating fresh single-byte slices.
var (
	directiveNoneMsg   = []byte{directiveNone}
	directiveStopMsg   = []byte{directiveStop}
	directiveResizeMsg = []byte{directiveResize}
	verdictMsgs        = [2][]byte{{0}, {1}}
)

// resizeTicket is the controller's handle on one in-loop resize: the serving
// loop reports the collectively-agreed snapshot outcome on snapDone, then
// blocks until the controller decides on commit (true retires the epoch,
// false resumes it).
type resizeTicket struct {
	snapDone chan error
	commit   chan bool
}

// callResizeHook runs this thread's snapshot callback, guarding against a
// resize directive reaching an object without elastic wiring.
func (o *Object) callResizeHook() error {
	if o.onResize == nil {
		return &orb.SystemException{RepoID: orb.RepoInternal, Message: "core: resize directive on non-elastic object"}
	}
	return o.onResize()
}

// serveResize is thread 0's side of the resize directive: broadcast it, run
// the collective snapshot, report the agreed outcome to the controller, and
// relay the controller's commit decision as the verdict. The boolean result
// mirrors Poll's: false when the epoch retired.
func (o *Object) serveResize(t *resizeTicket) (bool, error) {
	if _, err := o.comm.Bcast(0, directiveResizeMsg); err != nil {
		t.snapDone <- err
		return false, err
	}
	agreed := agreeError(o.comm, o.callResizeHook())
	t.snapDone <- agreed
	retire := <-t.commit
	verdict := 0
	if retire {
		verdict = 1
	}
	if _, err := o.comm.Bcast(0, verdictMsgs[verdict]); err != nil {
		return false, err
	}
	return !retire, nil
}

// processCall runs one collective invocation on this computing thread. The
// returned reply bytes are meaningful on thread 0 only; stop reports whether
// the handler requested an orderly shutdown.
func (o *Object) processCall(h *invocationHeader) (reply []byte, stop bool, err error) {
	op := o.ops[h.Op] // validated on thread 0 before broadcast
	if op == nil {
		return nil, false, orb.BadOperation(h.Op)
	}
	me := o.comm.Rank()
	sRanks := o.comm.Size()

	// Build the server-side argument sequences.
	lengths := make([]int, len(h.Args))
	for i, a := range h.Args {
		if a.Dir == Out {
			lengths[i] = -1
		} else {
			lengths[i] = a.Layout.Length
		}
	}
	args, err := op.NewArgs(o.comm, lengths)
	if err != nil {
		return nil, false, &orb.SystemException{RepoID: orb.RepoInternal, Message: err.Error()}
	}
	if len(args) != len(h.Args) {
		return nil, false, &orb.SystemException{
			RepoID:  orb.RepoInternal,
			Message: fmt.Sprintf("NewArgs built %d sequences for %d args", len(args), len(h.Args)),
		}
	}

	// Buckets exist to accumulate multi-port and streamed transfers (plus
	// attachments); plain centralized calls carry their data inline, so skip
	// the bucket (and its buffered channel) entirely for them. dropBucket
	// still runs in case a stray Data message created one for this token.
	var bucket *dataBucket
	if h.Method == Multiport || h.Streamed() {
		bucket = o.bucket(h.Token)
	}
	defer o.dropBucket(h.Token)

	// Receive the In/InOut argument data. Failures are captured, not
	// returned: every thread must reach the agreement below so a client
	// that died mid-transfer (this thread's receive timed out) fails the
	// upcall coherently everywhere instead of wedging the collective loop.
	recvStart := time.Now()
	recvErr := func() error {
		if h.Streamed() {
			return o.receiveStreamed(bucket, h, args)
		}
		for i, a := range h.Args {
			if a.Dir == Out {
				continue
			}
			switch h.Method {
			case Centralized:
				// Thread 0 holds the full payload; scatter it per the server
				// layout (collective).
				if err := args[i].ScatterUnmarshal(0, a.Data); err != nil {
					return &orb.SystemException{RepoID: orb.RepoMarshal, Message: err.Error()}
				}
			case Multiport:
				moves, err := dist.Plan(a.Layout, args[i].Layout())
				if err != nil {
					return &orb.SystemException{RepoID: orb.RepoMarshal, Message: err.Error()}
				}
				if err := o.receiveMoves(bucket, uint32(i), dist.PlanByDest(moves, sRanks)[me], args[i]); err != nil {
					return &orb.SystemException{RepoID: orb.RepoMarshal, Message: err.Error()}
				}
			}
		}
		return nil
	}()
	o.span(h.Token, obs.PhaseRecvXfer, recvStart)
	if agreed := agreeError(o.comm, recvErr); agreed != nil {
		// No thread runs the handler; thread 0 replies with the agreed
		// error and serving continues.
		return nil, false, agreed
	}

	// The collective upcall. The scalar-results encoder is per-object
	// scratch: encodeReplyPrefix copies its bytes into the reply stream
	// before the next invocation can reset it.
	if o.outScratch == nil {
		o.outScratch = orb.NewArgEncoder()
	} else {
		orb.ResetArgEncoder(o.outScratch)
	}
	out := o.outScratch
	upcallStart := time.Now()
	herr := func() error {
		scalars, err := orb.ArgDecoder(h.Scalars)
		if err != nil {
			return orb.Marshal(err)
		}
		call := &ServerCall{Comm: o.comm, Op: h.Op, In: scalars, Out: out, Args: args}
		return safeInvoke(op.Handler, call)
	}()
	o.span(h.Token, obs.PhaseUpcall, upcallStart)
	if herr != nil && errors.Is(herr, ErrStopServing) {
		stop = true
		herr = nil
	}
	// Synchronize after the invocation (the paper's post-invocation
	// synchronization of the server's computing threads), fused with error
	// agreement: a handler failure on any thread — previously invisible to
	// the client unless it was thread 0's — fails the upcall everywhere.
	if agreed := agreeError(o.comm, herr); agreed != nil {
		return nil, stop, agreed
	}

	// Return the Out/InOut argument data. Thread 0 opens the reply — scalars,
	// then per argument its direction and final length — and the threads
	// gather every whole-payload result straight into it, so the reply the
	// gather assembles is the buffer the adapter writes.
	sendStart := time.Now()
	var e *cdr.Encoder
	if me == 0 {
		e = orb.NewArgEncoder()
		encodeReplyPrefix(e, out.Bytes(), len(h.Args))
	}
	sendErr := func() error {
		for i, a := range h.Args {
			if a.Dir == InOut && args[i].Len() != a.Layout.Length {
				return &orb.SystemException{
					RepoID:  orb.RepoMarshal,
					Message: fmt.Sprintf("handler resized inout arg %d from %d to %d", i, a.Layout.Length, args[i].Len()),
				}
			}
		}
		if h.Streamed() {
			if err := o.sendStreamed(bucket, h, args); err != nil {
				return err
			}
		}
		for i, a := range h.Args {
			if e != nil {
				encodeReplyArg(e, a.Dir, args[i].Len())
			}
			if a.Dir == In || h.Streamed() {
				continue
			}
			switch h.Method {
			case Centralized:
				if err := gatherInto(o.comm, args[i], e); err != nil {
					return &orb.SystemException{RepoID: orb.RepoMarshal, Message: err.Error()}
				}
			case Multiport:
				// Compute the client's final layout for this argument.
				var clientLayout dist.Layout
				if a.Dir == InOut {
					clientLayout = a.Layout
				} else {
					spec := a.Spec
					if spec == nil {
						spec = dist.Block{}
					}
					cl, err := spec.Layout(args[i].Len(), h.ClientRanks)
					if err != nil {
						return &orb.SystemException{RepoID: orb.RepoMarshal, Message: err.Error()}
					}
					clientLayout = cl
				}
				moves, err := dist.Plan(args[i].Layout(), clientLayout)
				if err != nil {
					return &orb.SystemException{RepoID: orb.RepoMarshal, Message: err.Error()}
				}
				if err := o.sendMoves(bucket, h.Token, uint32(i), dist.PlanBySource(moves, sRanks)[me], args[i]); err != nil {
					return &orb.SystemException{RepoID: orb.RepoComm, Message: err.Error()}
				}
			}
		}
		return nil
	}()
	o.span(h.Token, obs.PhaseSendXfer, sendStart)
	if agreed := agreeError(o.comm, sendErr); agreed != nil {
		return nil, stop, agreed
	}
	if me == 0 {
		reply = e.Bytes()
	}
	return reply, stop, nil
}

// receiveStreamed consumes a streamed centralized request's chunk schedule
// into the In/InOut arguments (recvChunks).
func (o *Object) receiveStreamed(bucket *dataBucket, h *invocationHeader, args []dseq.Transferable) error {
	ins := make([]dseq.Transferable, len(args))
	for i, a := range h.Args {
		if a.Dir != Out {
			ins[i] = args[i]
		}
	}
	err := recvChunks(o.comm, bucket.ch, o.stop, o.opts.DataTimeout, false, int(h.ChunkElems), ins,
		func(t time.Time) { o.span(h.Token, obs.PhaseChunkRecv, t) })
	if err != nil {
		return &orb.SystemException{RepoID: orb.RepoMarshal, Message: err.Error()}
	}
	return nil
}

// sendStreamed returns a streamed centralized invocation's Out/InOut results
// as chunked Data messages (sendChunks) on the client's connection, before
// the Reply is encoded — same-connection ordering then guarantees the client
// holds every chunk once it sees the Reply. The reply-leg chunk size is
// recomputed from the final result lengths exactly as the client will.
func (o *Object) sendStreamed(bucket *dataBucket, h *invocationHeader, args []dseq.Transferable) error {
	me := o.comm.Rank()
	outs := make([]dseq.Transferable, len(args))
	outLens := make([]int, 0, len(args))
	for i, a := range h.Args {
		if a.Dir != In {
			outs[i] = args[i]
			outLens = append(outLens, args[i].Len())
		}
	}

	// Agree on the reply leg's compression mask: the request arrived on the
	// connection the reply chunks leave on, so thread 0 reads the mask its
	// adapter negotiated during the handshake and shares it before the first
	// collective marshal. Deterministically skipped (on every thread — the
	// options are replicated) when the object never accepts offers, so the
	// raw engine's collective schedule is untouched.
	mask := uint8(0)
	if o.opts.Server.Compression != 0 {
		var mb []byte
		if me == 0 {
			// A missing attachment resolves to raw here; the sender's own
			// resolution reports the failure through the usual error path.
			if c, err := bucket.conn(0, o.stop, attachTimeout); err == nil {
				mask, _ = c.Compression()
				// Under Auto the estimator can veto the negotiated codec for
				// this reply leg: on a connection we can write faster than we
				// can encode, raw wins. Decided once here, then broadcast, so
				// the collective marshal schedule stays deterministic.
				if mask != 0 && o.opts.Server.CompressionPolicy == zcodec.PolicyAuto && !compressionWins(c.WriteBandwidth()) {
					mask = 0
					o.compSkipped.Inc()
				}
			}
			mb = []byte{mask}
		}
		mb, err := o.comm.Bcast(0, mb)
		if err != nil {
			return &orb.SystemException{RepoID: orb.RepoInternal, Message: err.Error()}
		}
		if len(mb) == 1 {
			mask = mb[0]
		}
	}

	var cs *chunkSender
	if me == 0 && len(outLens) > 0 {
		cs = newChunkSender(connWriter(bucket.conn(0, o.stop, attachTimeout)))
	}
	_, err := sendChunks(o.comm, cs, h.Token, true, chunkElemsFor(int(h.ChunkElems), outLens), mask, outs,
		func(t time.Time) { o.spanCodec(h.Token, obs.PhaseChunkSend, t, mask) })
	return commFailure(err)
}

// receiveMoves consumes the expected inbound transfers for one argument on
// this computing thread and stores them into seq. The wait is bounded by
// the object's DataTimeout so a client thread that died mid-transfer fails
// this upcall instead of blocking the collective loop until Close.
func (o *Object) receiveMoves(bucket *dataBucket, argIdx uint32, expected []dist.Move, seq dseq.Transferable) error {
	return consumeMoves(bucket.ch, o.stop, o.opts.DataTimeout, argIdx, false, expected, seq)
}

// attachTimeout bounds how long a return-flow sender waits for a client
// attachment that has not yet arrived.
const attachTimeout = 30 * time.Second

// sendMoves ships this computing thread's outbound transfers for one
// argument back to the client threads over the connections they attached.
func (o *Object) sendMoves(bucket *dataBucket, token, argIdx uint32, mine []dist.Move, seq dseq.Transferable) error {
	for _, m := range mine {
		payload, err := seq.MarshalRange(m.SrcOff, m.Len)
		if err != nil {
			return err
		}
		conn, err := bucket.conn(m.DstRank, o.stop, attachTimeout)
		if err != nil {
			return err
		}
		msg := &wire.Data{
			RequestID: token,
			ArgIndex:  argIdx,
			SrcRank:   uint32(o.comm.Rank()),
			DstRank:   uint32(m.DstRank),
			DstOff:    uint64(m.DstOff),
			Count:     uint64(m.Len),
			Reply:     true,
			Payload:   payload,
		}
		if err := conn.WriteMessage(msg); err != nil {
			return err
		}
	}
	return nil
}

// safeInvoke contains handler panics.
func safeInvoke(h func(*ServerCall) error, call *ServerCall) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &orb.SystemException{RepoID: orb.RepoInternal, Message: fmt.Sprint("handler panic: ", p)}
		}
	}()
	return h(call)
}
