package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
)

// Directive kinds broadcast from the communicating thread to the others, one
// per serving round.
const (
	directiveCall byte = iota
	directiveStop
	// directiveNone: a non-blocking poll found nothing to do.
	directiveNone
	// directiveResize tells the computing threads to snapshot their live
	// state for a membership change: each runs its onResize hook, the outcome
	// is agreed collectively, and the round's verdict either retires the epoch
	// (Serve returns nil everywhere) or resumes it (the resize aborted
	// upstream and serving continues).
	directiveResize
)

// Serve processes requests until an operation handler returns ErrStopServing
// or Close is called on thread 0. It must be called collectively by all the
// computing threads of the object — this is the paper's requirement that a
// request be "delivered to all the computing threads". Serve returns nil on
// an orderly stop.
func (o *Object) Serve() error {
	defer clear(o.args)
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
//
// A round is two steps on every thread: thread 0's directive reaches everyone
// in one broadcast, and the threads carry it out together. Thread 0's verdict —
// does serving end here — rides a call's upcall agreement, or closes a resize
// round in a broadcast of its own, once the controller has decided it.
func (o *Object) Poll(block bool) (bool, error) {
	var (
		call   *pendingCall
		ticket *resizeTicket
		dir    []byte
	)
	o.sweep(false)
	if o.comm.Rank() == 0 {
		call, ticket, dir = o.nextDirective(block)
	}
	dir, err := o.comm.Bcast(0, dir)
	if err == nil && len(dir) == 0 {
		err = fmt.Errorf("%w: empty directive", ErrBadHeader)
	}
	if err != nil {
		if call != nil {
			call.replyCh <- callResult{err: &orb.SystemException{RepoID: orb.RepoInternal, Message: err.Error()}}
		}
		if ticket != nil {
			ticket.snapDone <- err
		}
		return false, err
	}
	switch dir[0] {
	case directiveStop:
		return false, nil
	case directiveNone:
		return true, nil
	case directiveResize:
		// Thread 0 reports the agreed snapshot outcome to the controller and
		// relays its decision: commit retires this epoch, abort resumes it.
		_, agreed := agree(o.comm, o.callResizeHook(), okOutcome)
		verdict := verdicts[false]
		if ticket != nil {
			ticket.snapDone <- agreed
			verdict = verdicts[<-ticket.commit]
		}
		if verdict, err = o.comm.Bcast(0, verdict); err != nil {
			return false, err
		}
		return !bytes.Equal(verdict, verdicts[true]), nil
	case directiveCall:
		// The kind, the reply leg's compression mask, then the header as the
		// request carried it, from its byte-order octet on.
		if len(dir) < 2 {
			return false, fmt.Errorf("%w: call directive without its reply mask", ErrBadHeader)
		}
		var (
			hdr   *invocationHeader
			conn  *transport.Conn
			steps *cdr.Decoder
		)
		if call != nil {
			hdr, conn, steps = call.header, call.conn, call.steps
		} else {
			var d cdr.Decoder
			if err = orb.OpenArgs(&d, dir[2:]); err == nil {
				hdr, err = decodeInvocationHeader(&d)
			}
			if err != nil {
				return false, err
			}
		}
		// Handler errors are reported through thread 0's reply; the other
		// threads keep serving.
		reply, stop, err := o.processCall(hdr, conn, steps, dir[1])
		if call != nil {
			call.replyCh <- callResult{reply: reply, err: err}
		}
		return !stop, nil
	default:
		return false, fmt.Errorf("%w: directive %d", ErrBadHeader, dir[0])
	}
}

// nextDirective is thread 0's choice of the round: the next queued call (its
// directive is the compression mask of its reply leg and the header's bytes,
// copied once; steps placed in the message stay at the thread that scatters
// them), a resize ticket, stop, or — a non-blocking poll that found nothing —
// none. The mask is the object's when the request offers a result stream,
// unless the Auto policy vetoes it on the request's connection; it is used only
// if the reply leg turns out framed.
func (o *Object) nextDirective(block bool) (call *pendingCall, ticket *resizeTicket, dir []byte) {
	if block {
		// Priority select: requests already queued drain before a pending
		// resize ticket is honored, so in-flight collectives complete in
		// the old epoch (the quiesce phase sheds new arrivals upstream).
		select {
		case call = <-o.queue:
		default:
			select {
			case call = <-o.queue:
			case ticket = <-o.resizeCh:
			case <-o.stop:
			}
		}
	} else {
		select {
		case call = <-o.queue:
		case ticket = <-o.resizeCh:
		case <-o.stop:
		default:
		}
	}
	if ticket != nil {
		return nil, ticket, directiveResizeMsg
	}
	if call == nil {
		// Either stopping, or a non-blocking poll found nothing.
		select {
		case <-o.stop:
			return nil, nil, directiveStopMsg
		default:
			return nil, nil, directiveNoneMsg
		}
	}
	if o.rec != nil && call.enqueuedNS != 0 {
		o.rec.Record(obs.Span{Trace: uint64(call.header.Token), Phase: obs.PhaseQueue, Rank: 0,
			Start: call.enqueuedNS, Dur: time.Now().UnixNano() - call.enqueuedNS})
	}
	var mask uint8
	if call.header.ResultChunkElems != 0 {
		mask = legMask(o.opts.Compression, o.opts.CompressionPolicy, call.conn.WriteBandwidth)
	}
	dir = append(make([]byte, 0, 2+len(call.raw)), directiveCall, mask)
	return call, nil, append(dir, call.raw...)
}

// Shared directive and verdict messages: the broadcast payloads are read-only
// everywhere, so every Poll round reuses these instead of allocating fresh
// ones. A verdict — does serving end here — is the clean outcome and a flag
// octet, what a call's upcall agreement (processCall) carries.
var (
	directiveNoneMsg   = []byte{directiveNone}
	directiveStopMsg   = []byte{directiveStop}
	directiveResizeMsg = []byte{directiveResize}
	verdicts           = map[bool][]byte{false: append(slices.Clip(okOutcome), 0), true: append(slices.Clip(okOutcome), 1)}
)

// resizeTicket is the controller's handle on one in-loop resize: thread 0's
// serving loop reports the collectively-agreed snapshot outcome on snapDone,
// then blocks until the controller decides on commit (true retires the epoch,
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

// processCall runs one collective invocation on this computing thread, the
// server's half of the skeleton invoke is the client's: receive leg, agree,
// upcall, agree, send leg, agree — the last only for an operation that returns
// results (OpDesc.results): without any, the send leg moves nothing and cannot
// fail. The receive leg is the one the header names; the send leg is placed
// here, once the upcall has fixed the result lengths.
// A leg's failure is captured, not returned: every thread must reach the
// agreement after it, so a client that died mid-transfer (this thread's
// receive timed out) fails the upcall coherently everywhere instead of
// wedging the collective loop. conn and steps are thread 0's: the connection
// the request arrived on, and the request past its header; mask is the
// directive's, what a framed send leg compresses with; the reply bytes are
// meaningful on thread 0 only; stop reports whether thread 0's handler
// requested an orderly shutdown, as the upcall agreement carried it.
func (o *Object) processCall(h *invocationHeader, conn *transport.Conn, steps *cdr.Decoder, mask uint8) (reply []byte, stop bool, err error) {
	op := o.ops[h.Op] // validated on thread 0 before broadcast
	if op == nil {
		return nil, false, orb.BadOperation(h.Op)
	}

	args, err := o.resetArgs(op, h)
	if err != nil {
		return nil, false, &orb.SystemException{RepoID: orb.RepoInternal, Message: err.Error()}
	}

	// Buckets exist to accumulate framed transfers (plus attachments); a receive
	// leg placed in the message has its data in the request, and a framed send
	// leg after it needs only the request's connection, so such calls skip the
	// bucket (and its buffered channel) entirely. dropBucket still runs in case
	// a stray Data message created one for this token.
	sh := h.shape()
	w := frameWait{stop: o.stop, timeout: o.opts.DataTimeout, token: h.Token}
	var bucket *dataBucket
	if h.ChunkElems != 0 {
		bucket = o.bucket(h.Token, true)
		w.ch = bucket.ch
	}
	defer o.dropBucket(h.Token)

	// Receive leg: the In/InOut argument data.
	recvStart := time.Now()
	var recvErr error
	switch sh {
	case shapeCentral:
		recvErr = recvChunks(o.comm, &w, steps, false, int(h.ChunkElems),
			len(args), func(i int) dseq.Transferable { return h.legSeq(args, i, Out) },
			func(t time.Time) { o.span(h.Token, obs.PhaseChunkRecv, t, 0) })
	case shapeDirect:
		recvErr = o.recvDirect(&w, h, args)
	}
	if recvErr != nil {
		// A lost data connection stays the COMM_FAILURE it is; whatever else
		// the leg met is a marshalling failure. (se escapes: declared here,
		// it costs the clean path nothing.)
		if se := (*orb.SystemException)(nil); !errors.As(recvErr, &se) {
			recvErr = orb.Marshal(recvErr)
		}
	}
	o.span(h.Token, obs.PhaseRecvXfer, recvStart, 0)
	if _, agreed := agree(o.comm, recvErr, okOutcome); agreed != nil {
		// No thread runs the handler; thread 0 replies with the agreed
		// error and serving continues.
		return nil, false, agreed
	}

	// The collective upcall, on per-object scratch: the ServerCall, its In
	// decoder and its Out encoder, whose bytes encodeReplyPrefix copies into
	// the reply stream before the next invocation can reset it.
	if o.outScratch == nil {
		o.outScratch = orb.NewArgEncoder()
	} else {
		orb.ResetArgEncoder(o.outScratch)
	}
	out := o.outScratch
	o.upcall = ServerCall{Comm: o.comm, Op: h.Op, In: &o.in, Out: out, Args: args}
	upcallStart := time.Now()
	herr := orb.OpenArgs(&o.in, h.Scalars)
	if herr != nil {
		herr = orb.Marshal(herr)
	} else if herr = safeInvoke(op.Handler, &o.upcall); errors.Is(herr, ErrStopServing) {
		stop, herr = true, nil
	}
	o.upcall, o.in = ServerCall{}, cdr.Decoder{} // holding no argument until the next upcall
	o.span(h.Token, obs.PhaseUpcall, upcallStart, 0)
	// Synchronize after the invocation (the paper's post-invocation
	// synchronization of the server's computing threads), fused with error
	// agreement: a handler failure on any thread — previously invisible to
	// the client unless it was thread 0's — fails the upcall everywhere. Its
	// broadcast carries thread 0's verdict, which every thread returns.
	tail, agreed := agree(o.comm, herr, verdicts[stop])
	if stop = bytes.Equal(tail, verdicts[true][len(okOutcome):]); agreed != nil {
		return nil, stop, agreed
	}

	// Send leg: the Out/InOut argument data, a centralized one placed now that
	// every thread knows the final lengths — framed in the size the client
	// offered when a result spans two such chunks, else in the message. Thread 0
	// renders the reply header — scalars, the leg's chunk size, then per argument
	// its direction and final length — and only a leg in the message puts more
	// behind it.
	sendStart := time.Now()
	ce := 0
	if sh == shapeCentral {
		ce = legChunkElems(int(h.ResultChunkElems), len(args), func(i int) int { return seqLen(h.legSeq(args, i, In)) })
	}
	var e *cdr.Encoder
	if o.comm.Rank() == 0 {
		e = orb.NewArgEncoder()
		encodeReplyPrefix(e, out.Bytes(), ce, len(h.Args))
	}
	var sendErr error
	for i, a := range h.Args {
		if a.Dir == InOut && args[i].Len() != a.Layout.Length && sendErr == nil {
			sendErr = orb.Marshal(fmt.Errorf("handler resized inout arg %d from %d to %d", i, a.Layout.Length, args[i].Len()))
		}
		if e != nil {
			encodeReplyArg(e, a.Dir, args[i].Len())
		}
	}
	if sendErr == nil {
		switch sh {
		case shapeCentral:
			sendErr = o.sendCentral(conn, e, h, ce, mask, args)
		case shapeDirect:
			sendErr = o.sendDirect(bucket, h, args)
		}
	}
	o.span(h.Token, obs.PhaseSendXfer, sendStart, 0)
	if op.Desc.results() {
		if _, sendErr = agree(o.comm, sendErr, okOutcome); sendErr != nil {
			return nil, stop, sendErr
		}
	}
	if e != nil {
		reply = e.Bytes()
	}
	return reply, stop, nil
}

// resetArgs readies op's argument sequences on this thread for call h: NewArgs
// builds them at the operation's first call, and every call resets them in
// place on the templates OpDesc advertises — In and InOut to the client's
// length, Out to empty — so a call no larger than one the operation has moved
// allocates no storage.
func (o *Object) resetArgs(op *Operation, h *invocationHeader) ([]dseq.Transferable, error) {
	args := o.args[op]
	if args == nil {
		var err error
		if args, err = op.NewArgs(o.comm); err != nil {
			return nil, err
		}
		if len(args) != len(op.Desc.Args) {
			return nil, fmt.Errorf("NewArgs built %d sequences for %d args", len(args), len(op.Desc.Args))
		}
		o.args[op] = args
	}
	for i, a := range h.Args {
		n := a.Layout.Length
		if a.Dir == Out {
			n = 0
		}
		if err := args[i].Reset(n, op.Desc.Args[i].specOrBlock()); err != nil {
			return nil, err
		}
	}
	return args, nil
}

// legSeq is argument i of args as one centralized leg carries it: nil where the
// direction is skip (Out on the receive leg, In on the send leg).
func (h *invocationHeader) legSeq(args []dseq.Transferable, i int, skip Dir) dseq.Transferable {
	if h.Args[i].Dir == skip {
		return nil
	}
	return args[i]
}

// sendCentral is the centralized send leg, placed by ce. In the message (ce 0)
// the threads gather every result straight into msg, thread 0's reply encoder
// (nil elsewhere), behind the header, so the reply the gather assembles is the
// buffer the adapter writes. Framed, the results leave as Data messages of ce
// elements, compressed with mask, on conn — thread 0's, the connection the
// request arrived on — before the Reply is written there, so same-connection
// ordering guarantees the client holds every chunk once it sees the Reply,
// which tells it ce.
func (o *Object) sendCentral(conn *transport.Conn, msg *cdr.Encoder, h *invocationHeader, ce int, mask uint8, args []dseq.Transferable) error {
	var cs *chunkSender
	if ce == 0 {
		mask = 0 // a leg in the message stays raw
	} else if o.comm.Rank() == 0 {
		if mask == 0 && o.opts.Compression != 0 {
			o.compSkipped.Inc() // the directive carried Auto's veto
		}
		cs, msg = newChunkSender(conn.WriteMessage), nil
	}
	_, err := sendChunks(o.comm, cs, msg, h.Token, true, ce, mask,
		len(args), func(i int) dseq.Transferable { return h.legSeq(args, i, In) },
		func(t time.Time) { o.span(h.Token, obs.PhaseChunkSend, t, mask) })
	return commFailure(err)
}

// recvDirect is the direct receive leg: the plans from the client's layout of
// every argument to the server's, in the chunk size the header announces, name
// the steps this thread expects. Each wait is bounded by the object's
// DataTimeout, so a client thread that died mid-transfer fails this upcall
// instead of blocking the collective loop until Close.
func (o *Object) recvDirect(w *frameWait, h *invocationHeader, args []dseq.Transferable) error {
	plans, ce, err := planDirect(int(h.ChunkElems), o.comm.Size(), len(args), func(i int) (from, to dist.Layout, err error) {
		if a := h.Args[i]; a.Dir != Out {
			from, to = a.Layout, args[i].Layout()
		}
		return from, to, nil
	})
	if err != nil {
		return err
	}
	return recvSteps(w, o.comm.Rank(), h.ClientRanks, false, ce, plans,
		func(i int) dseq.Transferable { return args[i] },
		func(t time.Time) { o.span(h.Token, obs.PhaseChunkRecv, t, 0) })
}

// sendDirect is the direct send leg: this thread's share of every result goes
// to the client threads that own it, over the connections they attached, along
// the plans to the client's final layouts. Every thread holds the whole plan,
// so a leg it refuses is refused by all of them alike, before a byte is
// written.
func (o *Object) sendDirect(bucket *dataBucket, h *invocationHeader, args []dseq.Transferable) error {
	plans, ce, err := planDirect(int(h.ChunkElems), h.ClientRanks, len(args), func(i int) (from, to dist.Layout, err error) {
		if a := h.Args[i]; a.Dir != In {
			from, to = args[i].Layout(), a.Layout
			if a.Dir == Out {
				to, err = a.Spec.Layout(args[i].Len(), h.ClientRanks)
			}
		}
		return from, to, err
	})
	if err != nil {
		return orb.Marshal(err)
	}
	_, err = sendSteps(bucket, h.ClientRanks, h.Token, o.comm.Rank(), true, ce, plans,
		func(i int) dseq.Transferable { return args[i] },
		func(t time.Time) { o.span(h.Token, obs.PhaseChunkSend, t, 0) })
	return commFailure(err)
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
