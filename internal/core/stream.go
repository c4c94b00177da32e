package core

import (
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

// Streamed centralized transfers: instead of gathering a whole argument at
// thread 0, marshalling it, and only then sending one giant request, the
// engine walks each large argument in fixed chunks — gathering chunk k+1
// over the runtime system while chunk k is on the wire. The reply leg is
// symmetric: the server gathers and writes result chunks before the Reply,
// and the client scatters them as it drains its sink. Both sides derive the
// same chunk schedule from the lengths and the chunk size in the header, so
// no per-chunk control traffic is needed.

// DefaultStreamChunkElems is the streamed-transfer chunk size when
// BindOptions.StreamChunkElems is zero. 8192 doubles (64 KiB payloads) sit
// comfortably above the per-message overhead and below the frame limit.
const DefaultStreamChunkElems = 8192

// encodeAheadDepth bounds how many encoded chunks the pipelined send
// worker may hold ahead of the wire. Depth 2 is enough to overlap the
// encode of chunk k+1 with the write of chunk k without letting a slow
// link pile up compressed frames (and their memory) unboundedly.
const encodeAheadDepth = 2

// maxStreamChunks bounds the total number of chunks in one direction of one
// invocation; the chunk size is raised until the schedule fits. The bound
// keeps a whole reply leg inside one data sink (capacity bucketCapacity):
// reply chunks are written before the Reply message, so they may all be
// buffered before the client starts draining.
const maxStreamChunks = 1024

// chunkElemsFor returns the chunk size for a transfer leg: base elements,
// doubled until the leg's total chunk count (across all its arguments, whose
// element lengths are given) fits maxStreamChunks. Both peers compute it
// from the same inputs, so the schedules agree without negotiation.
func chunkElemsFor(base int, lengths []int) int {
	ce := base
	if ce < 1 {
		ce = 1
	}
	for {
		total := 0
		for _, l := range lengths {
			total += chunkCount(l, ce)
		}
		if total <= maxStreamChunks {
			return ce
		}
		ce *= 2
	}
}

func chunkCount(length, ce int) int {
	if length <= 0 {
		return 0
	}
	return (length + ce - 1) / ce
}

// chunkRange returns the k-th chunk's [start, start+n) range.
func chunkRange(length, ce, k int) (start, n int) {
	start = k * ce
	n = ce
	if length-start < n {
		n = length - start
	}
	return start, n
}

func chunkFlags(last bool) byte {
	f := byte(wire.DataFlagChunk)
	if last {
		f |= wire.DataFlagLast
	}
	return f
}

// chunkFlagsZ is chunkFlags plus the compressed bit when the payload carries
// a compressed chunk envelope. The flag is per chunk, not per connection:
// incompressible chunks fall back to raw mid-stream and simply omit it.
func chunkFlagsZ(last bool, payload []byte) byte {
	f := chunkFlags(last)
	if dseq.IsCompressedChunk(payload) {
		f |= wire.DataFlagCompressed
	}
	return f
}

// streamMask agrees on the compression mask for one streamed invocation:
// thread 0 resolves the connection's negotiated mask (running the handshake
// on first use) and shares it, so every thread feeds the collective chunk
// marshalling the same mask. With compression off on the binding there is
// nothing to agree on — the collective schedule is exactly the raw engine's.
func (b *Binding) streamMask(comm *rts.Comm) (uint8, error) {
	if b.comp == 0 {
		return 0, nil
	}
	var mb []byte
	if comm.Rank() == 0 {
		wait := b.client.Timeout
		if wait <= 0 || wait > 5*time.Second {
			wait = 5 * time.Second
		}
		m := b.client.NegotiatedCompression(b.ref, wait) & b.comp
		// Under Auto the estimator can veto a negotiated codec for this
		// invocation: on a link faster than we can encode, raw wins. The
		// decision is made once, at the same single point the mask is
		// resolved, and broadcast — so the collective schedule stays
		// deterministic across threads.
		if m != 0 && b.policy == zcodec.PolicyAuto && !compressionWins(b.client.WireBandwidth(b.ref)) {
			m = 0
			b.compSkipped.Inc()
		}
		mb = []byte{m}
	}
	mb, err := comm.Bcast(0, mb)
	if err != nil {
		return 0, err
	}
	if len(mb) != 1 {
		return 0, fmt.Errorf("%w: compression mask agreement", ErrBadHeader)
	}
	return mb[0], nil
}

// streamEligible decides whether an invocation takes the streamed
// centralized path. The decision is a pure function of the binding options
// and the arguments' global lengths, so every SPMD thread decides identically
// without communicating: streaming must be enabled, and at least one
// In/InOut argument must be large enough (two chunks) for the overlap to pay.
func (b *Binding) streamEligible(args []DistArg) bool {
	if b.chunkElems <= 0 {
		return false
	}
	for _, a := range args {
		if a.Dir != Out && a.Seq.Len() >= 2*b.chunkElems {
			return true
		}
	}
	return false
}

// gatherInto is the whole-payload mover of both legs: the threads of c
// (a lane or engine communicator, so transfers of overlapping invocations
// cannot interleave) collectively gather seq at thread 0, straight into e —
// thread 0's request or reply encoder, nil elsewhere — as the argument's
// inline sequence<octet>. The header bytes and the payload are one buffer,
// written once.
func gatherInto(c *rts.Comm, seq dseq.Transferable, e *cdr.Encoder) error {
	if e == nil {
		return seq.GatherMarshalRangeTo(c, 0, 0, seq.Len(), nil)
	}
	m := e.BeginOctets()
	err := seq.GatherMarshalRangeTo(c, 0, 0, seq.Len(), e)
	e.EndOctets(m)
	return err
}

// chunkTimer returns the timer one transfer leg bounds each of its chunk
// waits with (nextChunk resets it per chunk), or nil when the wait is
// unbounded. The caller stops it when the leg is done.
func chunkTimer(timeout time.Duration) *time.Timer {
	if timeout <= 0 {
		return nil
	}
	return time.NewTimer(timeout)
}

// nextChunk pulls the next expected stream chunk from a data channel,
// validating that it is exactly the scheduled one, waiting at most timeout
// on the leg's timer t (nil: no bound). A nil message is the connection-loss
// poison. On any error the frame (if any) has been released; on success the
// caller owns the frame and must Release it.
func nextChunk(ch <-chan *wire.Data, stop <-chan struct{}, t *time.Timer, timeout time.Duration, argIdx uint32, reply bool, start, n int, last bool) (*wire.Data, error) {
	var deadline <-chan time.Time
	if t != nil {
		t.Reset(timeout)
		deadline = t.C
	}
	select {
	case d := <-ch:
		if d == nil {
			return nil, &orb.SystemException{RepoID: orb.RepoComm, Message: "data connection lost mid-stream"}
		}
		if d.ArgIndex != argIdx || d.Reply != reply || !d.Chunked() ||
			d.DstOff != uint64(start) || d.Count != uint64(n) || d.LastChunk() != last {
			err := fmt.Errorf("%w: stream chunk arg %d off %d count %d last %v, want arg %d off %d count %d last %v",
				ErrBadHeader, d.ArgIndex, d.DstOff, d.Count, d.LastChunk(), argIdx, start, n, last)
			d.Release()
			return nil, err
		}
		return d, nil
	case <-stop:
		return nil, ErrStopped
	case <-deadline:
		return nil, fmt.Errorf("core: stream chunk (arg %d, off %d) timed out after %v", argIdx, start, timeout)
	}
}

// drainData empties a data channel without blocking, returning any pooled
// frames still buffered in it.
func drainData(ch chan *wire.Data) {
	for {
		select {
		case d := <-ch:
			if d != nil {
				d.Release()
			}
		default:
			return
		}
	}
}

// invokeCentralizedStreamed is invokeCentralized with the staged
// gather→pack→send replaced by a chunked pipeline. The collective schedule
// is fixed: every thread walks the same chunks of the same arguments in the
// same order, and local failures are carried through the schedule (thread 0
// substitutes fail-marker payloads) rather than breaking it, so a failure
// surfaces as one agreed error instead of a stranded collective.
func (b *Binding) invokeCentralizedStreamed(comm *rts.Comm, token uint32, op string, scalars []byte, args []DistArg, desc OpDesc, timing *Timing) ([]byte, error) {
	me := comm.Rank()
	inLens := make([]int, 0, len(args))
	for _, a := range args {
		if a.Dir != Out {
			inLens = append(inLens, a.Seq.Len())
		}
	}
	ce := chunkElemsFor(b.chunkElems, inLens)
	mask, err := b.streamMask(comm)
	if err != nil {
		return nil, err
	}

	type replyResult struct {
		payload []byte
		err     error
	}
	var sink chan *wire.Data
	replyCh := make(chan replyResult, 1)
	launched := false
	sendStart := time.Now()

	// The communicating thread launches the request first — the header
	// travels ahead of the chunks, which the server buffers per token
	// either way — then joins the collective chunk schedule.
	if me == 0 {
		sink = make(chan *wire.Data, bucketCapacity)
		b.client.RegisterDataSink(token, sink)
		defer func() {
			b.client.UnregisterDataSink(token)
			drainData(sink)
		}()
		packStart := time.Now()
		h := b.newHeader(comm, token, op, Centralized, scalars, args)
		h.Streamed, h.ChunkElems = true, uint32(ce)
		e := orb.NewArgEncoder()
		h.encode(e)
		if timing != nil {
			timing.Pack = time.Since(packStart)
		}
		b.span(token, obs.PhasePack, packStart)
		launched = true
		go func() {
			payload, err := b.client.Invoke(b.ref, op, e.Bytes(), false)
			replyCh <- replyResult{payload: payload, err: err}
		}()
	}

	// Request leg: gather-marshal chunk k over the runtime system while
	// chunk k-1 is on the wire. After a collective gather fails on this
	// thread it stops issuing gathers (the peers fail their next collective
	// and stop too); thread 0 keeps the wire schedule alive with fail
	// markers so the server's receive loop stays aligned.
	//
	// With a codec engaged, thread 0 additionally hands finished frames to
	// a bounded send worker: chunk k+1 is gathered and encoded while chunk
	// k is still being written to the wire. The worker is a single
	// goroutine draining a FIFO channel, so frames hit the wire in schedule
	// order; the raw path keeps the exact serial send (and its alloc
	// profile) because no codec means nothing to overlap.
	gatherTotal := time.Duration(0)
	var streamErr error // this thread's first failure
	gatherDown := false
	var (
		sendCh   chan *wire.Data
		sendDone chan struct{}
		sendErr  error // owned by the worker until sendDone is closed
	)
	if me == 0 && mask != 0 {
		sendCh = make(chan *wire.Data, encodeAheadDepth)
		sendDone = make(chan struct{})
		go func() {
			defer close(sendDone)
			for d := range sendCh {
				if err := b.client.SendData(b.ref, d); err != nil && sendErr == nil {
					sendErr = &orb.SystemException{RepoID: orb.RepoComm, Message: err.Error()}
				}
			}
		}()
	}
	for i, a := range args {
		if a.Dir == Out {
			continue
		}
		l := a.Seq.Len()
		nchunks := chunkCount(l, ce)
		for k := 0; k < nchunks; k++ {
			start, n := chunkRange(l, ce, k)
			chunkStart := time.Now()
			var payload []byte
			if !gatherDown {
				p, err := a.Seq.GatherMarshalRangeZ(comm, 0, start, n, mask)
				if err != nil {
					gatherDown = true
					if streamErr == nil {
						streamErr = err
					}
				} else {
					payload = p
				}
			}
			gatherTotal += time.Since(chunkStart)
			if me != 0 {
				b.spanCodec(token, obs.PhaseChunkSend, chunkStart, mask)
				continue
			}
			if streamErr != nil {
				payload = dseq.FailMarker
			}
			d := &wire.Data{
				RequestID: token, ArgIndex: uint32(i), SrcRank: 0, DstRank: 0,
				DstOff: uint64(start), Count: uint64(n),
				Flags: chunkFlagsZ(k == nchunks-1, payload), Payload: payload,
			}
			if sendCh != nil {
				sendCh <- d
			} else if err := b.client.SendData(b.ref, d); err != nil && streamErr == nil {
				// Wire failures surface in the control path's error taxonomy
				// (COMM_FAILURE), not as raw transport errors, so callers can
				// classify a dead peer the same way on every transfer path.
				streamErr = &orb.SystemException{RepoID: orb.RepoComm, Message: err.Error()}
			}
			b.spanCodec(token, obs.PhaseChunkSend, chunkStart, mask)
		}
	}
	if sendCh != nil {
		close(sendCh)
		<-sendDone
		if streamErr == nil {
			streamErr = sendErr
		}
	}
	if timing != nil {
		timing.Gather = gatherTotal
	}
	b.spanDur(token, obs.PhaseGather, sendStart, gatherTotal)

	// The communicating thread collects the reply (bounded by the client
	// timeout); everyone shares it, then agrees on the request leg.
	var meta invokeMeta
	if me == 0 && launched {
		res := <-replyCh
		meta = metaFromReply(res.payload, res.err, Centralized, true)
	}
	if timing != nil {
		timing.SendRecv = time.Since(sendStart)
	}
	b.span(token, obs.PhaseSendRecv, sendStart)
	if err := shareMeta(comm, &meta); err != nil {
		return nil, err
	}
	phaseErr := streamErr
	if phaseErr == nil {
		phaseErr = meta.err
	}
	if agreed := agreeError(comm, phaseErr); agreed != nil {
		return nil, agreed
	}

	// Reply leg: the server wrote every reply chunk before the Reply on the
	// same connection, so by now they are in (or streaming into) the sink in
	// schedule order. The reply chunk size is recomputed from the result
	// lengths exactly as the server did, so the schedules agree.
	outLens := make([]int, 0, len(args))
	for i, a := range args {
		if a.Dir != In {
			outLens = append(outLens, meta.lengths[i])
		}
	}
	ceOut := chunkElemsFor(ce, outLens)
	scatterStart := time.Now()
	scatterErr := func() error {
		var firstErr error
		t := chunkTimer(b.client.Timeout)
		if t != nil {
			defer t.Stop()
		}
		for i, a := range args {
			if a.Dir == In {
				continue
			}
			if a.Dir == Out {
				if err := a.Seq.ResizeAlloc(meta.lengths[i]); err != nil {
					return err
				}
			} else if meta.lengths[i] != a.Seq.Len() {
				return fmt.Errorf("%w: inout arg %d length %d from server, have %d", ErrBadHeader, i, meta.lengths[i], a.Seq.Len())
			}
			l := meta.lengths[i]
			nchunks := chunkCount(l, ceOut)
			for k := 0; k < nchunks; k++ {
				start, n := chunkRange(l, ceOut, k)
				chunkStart := time.Now()
				var payload []byte
				var frame *wire.Data
				if me == 0 {
					if firstErr != nil {
						payload = dseq.FailMarker
					} else if d, err := nextChunk(sink, nil, t, b.client.Timeout, uint32(i), true, start, n, k == nchunks-1); err != nil {
						firstErr = err
						payload = dseq.FailMarker
					} else {
						frame, payload = d, d.Payload
					}
				}
				err := a.Seq.ScatterUnmarshalRange(comm, 0, start, n, payload)
				if frame != nil {
					frame.Release()
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				b.span(token, obs.PhaseChunkRecv, chunkStart)
			}
		}
		return firstErr
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
