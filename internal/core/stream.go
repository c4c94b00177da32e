package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

// Streamed centralized transfers: instead of gathering a whole argument at
// thread 0, marshalling it, and only then sending one giant request, the
// engine walks each large argument in fixed chunks — gathering chunk k+1
// over the runtime system while chunk k is on the wire. The reply leg is
// symmetric: the server gathers and writes result chunks before the Reply,
// and the client scatters them as it drains its sink. Each leg is placed by
// itself, by the side that knows its lengths (legChunkElems), and both sides
// derive the leg's chunk schedule from the lengths and the chunk size its
// header announces, so no per-chunk control traffic is needed.

// DefaultStreamChunkElems is the streamed-transfer chunk size when
// BindOptions.StreamChunkElems is zero. 8192 doubles (64 KiB payloads) sit
// comfortably above the per-message overhead and below the frame limit.
const DefaultStreamChunkElems = 8192

// encodeAheadDepth bounds how many gathered chunks a leg's sender may hold
// ahead of the wire. Depth 2 is enough to overlap the gather (and encode) of
// chunk k+1 with the write of chunk k without letting a slow link pile up
// frames, and their memory, unboundedly.
const encodeAheadDepth = 2

// chunkSender is the sending half of every streamed leg — request and reply,
// raw and compressed — on the communicating thread: a ring of
// encodeAheadDepth+1 slots, each a reusable chunk encoder and the Data message
// that frames it, and one worker that writes filled slots in the order they
// were queued. The thread gathers chunk k+1 straight into a free slot while
// the worker has chunk k on the wire, and waits only when every slot is in
// flight. A slot's bytes belong to the worker from send until it puts the
// slot back on free; nothing else ever references them.
type chunkSender struct {
	write func(wire.Message) error
	slots [encodeAheadDepth + 1]chunkSlot
	free  chan *chunkSlot // sized to the ring: never blocks the worker
	queue chan *chunkSlot // sized to the ring: send never blocks
	done  chan struct{}
	err   error // the first write failure; the worker's until done is closed
}

type chunkSlot struct {
	enc *cdr.Encoder
	msg wire.Data
}

// chunkEncoders keeps the ring encoders, grown to a chunk's size, across legs.
var chunkEncoders = sync.Pool{New: func() any { return cdr.NewEncoder(cdr.NativeOrder) }}

// connWriter is the write a leg hands its sender: the data connection is
// resolved once, so every chunk is a plain WriteMessage — or, when it could
// not be resolved, the error that says why.
func connWriter(conn *transport.Conn, err error) func(wire.Message) error {
	if err != nil {
		return func(wire.Message) error { return err }
	}
	return conn.WriteMessage
}

// newChunkSender starts a leg's sender; close ends it.
func newChunkSender(write func(wire.Message) error) *chunkSender {
	cs := &chunkSender{write: write, done: make(chan struct{}),
		free: make(chan *chunkSlot, encodeAheadDepth+1), queue: make(chan *chunkSlot, encodeAheadDepth+1)}
	for i := range cs.slots {
		cs.slots[i].enc = chunkEncoders.Get().(*cdr.Encoder)
		cs.free <- &cs.slots[i]
	}
	go func() {
		defer close(cs.done)
		for s := range cs.queue {
			// After a failed write the stream may be mid-frame: the rest of
			// the schedule is drained, not written.
			if cs.err == nil {
				cs.err = cs.write(&s.msg)
			}
			s.msg.Payload = nil
			cs.free <- s
		}
	}()
	return cs
}

// next returns an empty slot to gather into, once the wire has freed one.
func (cs *chunkSender) next() *chunkSlot {
	s := <-cs.free
	s.enc.Reset()
	return s
}

// send queues a slot obtained from next, its msg filled in, behind the ones
// sent before it.
func (cs *chunkSender) send(s *chunkSlot) { cs.queue <- s }

// close waits for the queued chunks to be written and returns the first write
// failure as a COMM_FAILURE.
func (cs *chunkSender) close() error {
	close(cs.queue)
	<-cs.done
	for i := range cs.slots {
		chunkEncoders.Put(cs.slots[i].enc)
	}
	return commFailure(cs.err)
}

// commFailure files a transfer leg's failure under COMM_FAILURE, the control
// path's error taxonomy, so callers classify a dead peer the same way on every
// transfer path; an error that already is a system exception keeps its own.
func commFailure(err error) error {
	if err == nil {
		return nil
	}
	if se := (*orb.SystemException)(nil); errors.As(err, &se) {
		return err
	}
	return &orb.SystemException{RepoID: orb.RepoComm, Message: err.Error()}
}

// sendChunks walks the sending side of one streamed leg. For each of the nargs
// arguments the leg carries (arg(i) is nil for one it does not) the threads of
// comm collectively gather-marshal each scheduled chunk — thread 0, the one
// holding the leg's sender, straight into the slot the chunk is written from
// — and the sender is closed at the end. The schedule always runs to
// completion: a thread whose collective gather failed stops issuing gathers
// (the peers fail their next collective and stop too) while thread 0 keeps
// the wire schedule alive with fail markers, so the receiving loop stays
// aligned and the failure surfaces as one agreed error. It returns the time
// spent gathering and this thread's first failure.
func sendChunks(comm *rts.Comm, cs *chunkSender, token uint32, reply bool, ce int, mask uint8,
	nargs int, arg func(i int) dseq.Transferable, span func(chunkStart time.Time)) (gather time.Duration, firstErr error) {
	for i := 0; i < nargs; i++ {
		seq := arg(i)
		if seq == nil {
			continue
		}
		l := seq.Len()
		nchunks := chunkCount(l, ce)
		for k := 0; k < nchunks; k++ {
			start, n := chunkRange(l, ce, k)
			chunkStart := time.Now()
			var slot *chunkSlot
			var dst *cdr.Encoder
			if cs != nil {
				slot = cs.next()
				dst = slot.enc
			}
			if firstErr == nil {
				gatherStart := time.Now()
				firstErr = seq.GatherMarshalRangeTo(comm, 0, start, n, mask, dst)
				gather += time.Since(gatherStart)
			}
			if slot != nil {
				payload := dst.Bytes()
				if firstErr != nil {
					payload = dseq.FailMarker
				}
				slot.msg = wire.Data{
					RequestID: token, ArgIndex: uint32(i), DstOff: uint64(start), Count: uint64(n),
					Reply: reply, Flags: chunkFlagsZ(k == nchunks-1, payload), Payload: payload,
				}
				cs.send(slot)
			}
			span(chunkStart)
		}
	}
	if cs != nil {
		if err := cs.close(); firstErr == nil {
			firstErr = err
		}
	}
	return gather, firstErr
}

// recvChunks walks the receiving side of one streamed leg: thread 0 pulls each
// scheduled chunk of every argument the leg carries (sendChunks has nargs and
// arg) off ch, on a timer only it needs, and the threads of comm collectively
// scatter it. The schedule always runs to
// completion — after a failure thread 0 substitutes fail markers instead of
// pulling — so the collective loop cannot desynchronize, and the first
// failure is returned once the schedule is done.
func recvChunks(comm *rts.Comm, ch <-chan *wire.Data, stop <-chan struct{}, timeout time.Duration, token uint32, reply bool, ce int,
	nargs int, arg func(i int) dseq.Transferable, span func(chunkStart time.Time)) error {
	var firstErr error
	var t *time.Timer
	if comm.Rank() == 0 {
		if t = chunkTimer(timeout); t != nil {
			defer t.Stop()
		}
	}
	for i := 0; i < nargs; i++ {
		seq := arg(i)
		if seq == nil {
			continue
		}
		l := seq.Len()
		nchunks := chunkCount(l, ce)
		for k := 0; k < nchunks; k++ {
			start, n := chunkRange(l, ce, k)
			chunkStart := time.Now()
			var payload []byte
			var frame *wire.Data
			if comm.Rank() == 0 {
				if firstErr != nil {
					payload = dseq.FailMarker
				} else if d, err := nextChunk(ch, stop, t, timeout, token, uint32(i), reply, start, n, k == nchunks-1); err != nil {
					firstErr = err
					payload = dseq.FailMarker
				} else {
					frame, payload = d, d.Payload
				}
			}
			// The scatter copies the elements out (root's own share directly,
			// a peer's through a rented piece), so the frame goes back as soon
			// as it returns.
			err := seq.ScatterUnmarshalRange(comm, 0, start, n, payload)
			if frame != nil {
				frame.Release()
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
			span(chunkStart)
		}
	}
	return firstErr
}

// maxStreamChunks bounds the total number of chunks in one direction of one
// invocation; the chunk size is raised until the schedule fits. The bound
// keeps a whole reply leg inside one data sink (capacity bucketCapacity):
// reply chunks are written before the Reply message, so they may all be
// buffered before the client starts draining.
const maxStreamChunks = 1024

// legChunkElems is the placement rule of one centralized leg, applied by the
// side that knows the leg's lengths — the client to the In/InOut arguments it
// sends, the server to the Out/InOut results it is about to return — and to
// nothing else: length(i) is what argument i contributes to the leg, 0 for one
// it does not carry. The leg is chunked, in the size returned, when an
// argument spans two chunks of base, so the overlap pays; 0 places it inline.
// A base of 0 — a shard-routed invocation, whose chunks would travel to the
// primary profile's endpoints while the request follows the ring, or a client
// that offered no stream — is always inline.
func legChunkElems(base, nargs int, length func(i int) int) int {
	if base > 0 {
		for i := 0; i < nargs; i++ {
			if length(i) >= 2*base {
				return chunkElemsFor(base, nargs, length)
			}
		}
	}
	return 0
}

// chunkElemsFor returns the chunk size of a chunked leg: base elements,
// doubled until the leg's total chunk count (length(i) per argument, 0 for one
// the leg does not carry) fits maxStreamChunks. Whoever places the leg
// announces the result; the peer that receives a reply leg recomputes it from
// the announced lengths and refuses any other.
func chunkElemsFor(base, nargs int, length func(i int) int) int {
	ce := max(base, 1)
	for {
		total := 0
		for i := 0; i < nargs; i++ {
			total += chunkCount(length(i), ce)
		}
		if total <= maxStreamChunks {
			return ce
		}
		ce *= 2
	}
}

// seqLen is what a sequence contributes to a leg's schedule: nothing when the
// leg does not carry it.
func seqLen(seq dseq.Transferable) int {
	if seq == nil {
		return 0
	}
	return seq.Len()
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

// agreeMask settles the compression mask of one chunked leg, on either side:
// thread 0 resolves the mask negotiated on the leg's connection and shares it,
// so every thread feeds the collective chunk marshalling the same mask. Under
// Auto the estimator can veto a negotiated codec for this leg — on a link
// faster than we can encode, raw wins — once, at the single point the mask is
// resolved, so the collective schedule stays deterministic across threads.
// With nothing offered (accepted, on the server) every thread skips the
// broadcast, the options being replicated: exactly the raw engine's schedule.
func agreeMask(comm *rts.Comm, offered uint8, policy zcodec.Policy, skipped *obs.Counter,
	negotiated func() (mask uint8, wireBps float64)) (uint8, error) {
	if offered == 0 {
		return 0, nil
	}
	var mb []byte
	if comm.Rank() == 0 {
		m, bps := negotiated()
		m &= offered
		if m != 0 && policy == zcodec.PolicyAuto && !compressionWins(bps) {
			m = 0
			skipped.Inc()
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

// gatherInto is the whole-payload mover of both legs: the threads of c
// (a lane or engine communicator, so transfers of overlapping invocations
// cannot interleave) collectively gather seq at thread 0, straight into e —
// thread 0's request or reply encoder, nil elsewhere — as the argument's
// inline sequence<octet>. The header bytes and the payload are one buffer,
// written once.
func gatherInto(c *rts.Comm, seq dseq.Transferable, e *cdr.Encoder) error {
	if e == nil {
		return seq.GatherMarshalRangeTo(c, 0, 0, seq.Len(), 0, nil)
	}
	m := e.BeginOctets()
	err := seq.GatherMarshalRangeTo(c, 0, 0, seq.Len(), 0, e)
	e.EndOctets(m)
	return err
}

// chunkTimer returns the timer one transfer leg bounds each of its frame
// waits with (takeFrame resets it per frame), or nil when the wait is
// unbounded. The caller stops it when the leg is done.
func chunkTimer(timeout time.Duration) *time.Timer {
	if timeout <= 0 {
		return nil
	}
	return time.NewTimer(timeout)
}

// takeFrame is the one wait of a receive leg, whatever its shape: the next
// frame of invocation token off ch, waiting at most timeout on the leg's timer
// t (nil: no bound) and until stop (nil: no cancellation). A frame of another
// invocation — a client's sink belongs to its lane, so one that arrived after
// the invocation before this one gave up on it may still sit there — is
// released and skipped. A nil frame is the connection-loss poison and, like
// every lost connection, a COMM_FAILURE: a client whose peer restarted or
// resized can tell "re-resolve" (naming.Stale) from a hard failure. The caller
// owns the frame it is given and must Release it.
func takeFrame(ch <-chan *wire.Data, stop <-chan struct{}, t *time.Timer, timeout time.Duration, token uint32) (*wire.Data, error) {
	var deadline <-chan time.Time
	if t != nil {
		t.Reset(timeout)
		deadline = t.C
	}
	for {
		select {
		case d := <-ch:
			if d == nil {
				return nil, &orb.SystemException{RepoID: orb.RepoComm, Message: "data connection lost mid-transfer"}
			}
			if d.RequestID != token {
				d.Release()
				continue
			}
			return d, nil
		case <-stop:
			return nil, ErrStopped
		case <-deadline:
			return nil, fmt.Errorf("core: no data frame arrived within %v", timeout)
		}
	}
}

// nextChunk pulls the next expected stream chunk from a data channel (see
// takeFrame for the wait), validating that it is exactly the scheduled one.
// On any error the frame (if any) has been released; on success the caller
// owns the frame and must Release it.
func nextChunk(ch <-chan *wire.Data, stop <-chan struct{}, t *time.Timer, timeout time.Duration, token, argIdx uint32, reply bool, start, n int, last bool) (*wire.Data, error) {
	d, err := takeFrame(ch, stop, t, timeout, token)
	if err != nil {
		return nil, fmt.Errorf("stream chunk (arg %d, off %d): %w", argIdx, start, err)
	}
	if d.ArgIndex != argIdx || d.Reply != reply || !d.Chunked() ||
		d.DstOff != uint64(start) || d.Count != uint64(n) || d.LastChunk() != last {
		err := fmt.Errorf("%w: stream chunk arg %d off %d count %d last %v, want arg %d off %d count %d last %v",
			ErrBadHeader, d.ArgIndex, d.DstOff, d.Count, d.LastChunk(), argIdx, start, n, last)
		d.Release()
		return nil, err
	}
	return d, nil
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

// sendChunked is the chunked forward leg: the inline shape's staged
// gather→pack→send as a pipeline. The collective schedule is fixed — every
// thread walks the same chunks of the same arguments in the same order — and
// local failures are carried through it (thread 0 substitutes fail-marker
// payloads), so a failure surfaces as one agreed error instead of a stranded
// collective.
func (iv *invocation) sendChunked(scalars []byte) error {
	b := iv.b
	var err error
	iv.mask, err = agreeMask(iv.comm, b.comp, b.policy, b.compSkipped, func() (uint8, float64) {
		// Resolving the mask runs the handshake on the connection's first use.
		return b.client.NegotiatedCompression(b.ref, b.client.Timeout), b.client.WireBandwidth(b.ref)
	})
	if err != nil {
		return err
	}
	// The communicating thread launches the request first — the header
	// travels ahead of the chunks, which the server buffers per token
	// either way — then joins the collective chunk schedule as its sender.
	var cs *chunkSender
	if iv.comm.Rank() == 0 {
		packStart := time.Now()
		e := orb.NewArgEncoder()
		iv.newHeader(Centralized, scalars).encode(e)
		iv.phase(obs.PhasePack, packStart, time.Since(packStart))
		iv.launch(e.Bytes())
		cs = newChunkSender(connWriter(b.client.DataConn(b.ref, 0)))
	}
	// Gather-marshal chunk k+1 over the runtime system while chunk k is on
	// the wire.
	gatherStart := time.Now()
	gather, err := sendChunks(iv.comm, cs, iv.token, false, iv.ce, iv.mask,
		len(iv.args), func(i int) dseq.Transferable { return iv.legSeq(i, Out) },
		func(t time.Time) { iv.phase(obs.PhaseChunkSend, t, time.Since(t)) })
	iv.phase(obs.PhaseGather, gatherStart, gather)
	return err
}

// recvChunked is the chunked back leg, in the chunk size the reply announced:
// the server wrote every result chunk before the Reply on the same connection,
// so by now they are in the lane's sink in schedule order.
func (iv *invocation) recvChunked(ce int) error {
	return recvChunks(iv.comm, iv.sink, nil, iv.b.client.Timeout, iv.token, true, ce,
		len(iv.args), func(i int) dseq.Transferable { return iv.legSeq(i, In) },
		func(t time.Time) { iv.phase(obs.PhaseChunkRecv, t, time.Since(t)) })
}
