package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Centralized transfers: one walk per side (sendChunks, recvChunks) moves every
// argument a leg carries through the communicating threads, and the leg's
// placement says where thread 0 renders and takes each step. A small leg rides
// in the message, one step per argument behind the header. A large one is
// framed: instead of gathering a whole argument at thread 0, marshalling it,
// and only then sending one giant request, the engine walks it in fixed chunks
// — gathering chunk k+1 over the runtime system while chunk k is on the wire.
// The reply leg is symmetric: the server gathers and writes result chunks
// before the Reply, and the client scatters them as it drains its sink. Each
// leg is placed by itself, by the side that knows its lengths (legChunkElems),
// and both sides derive the leg's schedule (dist.Schedule) from the lengths and
// the chunk size its header announces, so no per-chunk control traffic is
// needed. The sender, the frame wait and the frame check here are the direct
// legs' too (xfer.go): what differs is the plan the schedule cuts and who
// renders a step.

// DefaultStreamChunkElems is the chunk size of every bulk transfer — a streamed
// or a direct leg when BindOptions.StreamChunkElems is zero, and a resize's
// state transfer always. 8192 doubles (64 KiB payloads) sit
// comfortably above the per-message overhead and below the frame limit.
const DefaultStreamChunkElems = 8192

// encodeAheadDepth bounds how many gathered chunks a leg's sender may hold
// ahead of the wire. Depth 2 is enough to overlap the gather (and encode) of
// chunk k+1 with the write of chunk k without letting a slow link pile up
// frames, and their memory, unboundedly.
const encodeAheadDepth = 2

// chunkSender is the sending half of every framed and direct leg — request
// and reply, raw and compressed — on the thread that sources the chunks: a
// ring of encodeAheadDepth+1 slots, each a reusable chunk encoder and the Data
// message that frames it, and one worker that writes filled slots in the order
// they were queued. The thread renders chunk k+1 straight into a free slot
// while the worker has chunk k on the wire, and waits only when every slot is
// in flight. A slot's bytes belong to the worker from send until it puts the
// slot back on free; nothing else ever references them.
type chunkSender struct {
	write  func(wire.Message) error
	slots  [encodeAheadDepth + 1]chunkSlot
	free   chan *chunkSlot // sized to the ring: never blocks the worker
	queue  chan *chunkSlot // sized to the ring and close's mark: send never blocks
	worker sync.WaitGroup
	err    error // the first write failure; the worker's until it is done
}

type chunkSlot struct {
	enc *cdr.Encoder
	msg wire.Data
}

// idleSenders keeps up to maxIdleSenders whole rings — the channels, and the
// encoders grown to a chunk's size — across legs: a leg borrows one and pays
// for its worker alone. A bounded stack, not a sync.Pool: a pool parks a lone
// item in the slot private to the thread that put it, where a leg starting on
// another cannot find it, and each such miss costs three chunk-sized encoders
// (measured: one in nine legs on the two-core benchmark box).
var idleSenders struct {
	sync.Mutex
	rings []*chunkSender
}

const maxIdleSenders = 8

// connWriter is the write a framed centralized leg hands its sender: the data
// connection is resolved once, so every chunk is a plain WriteMessage — or,
// when it could not be resolved, the error that says why.
func connWriter(conn *transport.Conn, err error) func(wire.Message) error {
	if err != nil {
		return func(wire.Message) error { return err }
	}
	return conn.WriteMessage
}

// newChunkSender starts a leg's sender, on an idle ring when there is one;
// close ends it.
func newChunkSender(write func(wire.Message) error) *chunkSender {
	var cs *chunkSender
	idleSenders.Lock()
	if n := len(idleSenders.rings); n > 0 {
		cs, idleSenders.rings = idleSenders.rings[n-1], idleSenders.rings[:n-1]
	}
	idleSenders.Unlock()
	if cs == nil {
		cs = &chunkSender{free: make(chan *chunkSlot, encodeAheadDepth+1), queue: make(chan *chunkSlot, encodeAheadDepth+2)}
		for i := range cs.slots {
			cs.slots[i].enc = cdr.NewEncoder(cdr.NativeOrder)
			cs.free <- &cs.slots[i]
		}
	}
	cs.write = write
	cs.worker.Add(1)
	go cs.run()
	return cs
}

// run is the worker: it writes the queued slots until close's nil mark.
func (cs *chunkSender) run() {
	defer cs.worker.Done()
	for s := <-cs.queue; s != nil; s = <-cs.queue {
		// After a failed write the stream may be mid-frame: the rest of
		// the schedule is drained, not written.
		if cs.err == nil {
			cs.err = cs.write(&s.msg)
		}
		s.msg.Payload = nil
		cs.free <- s
	}
}

// next returns an empty slot to render into, once the wire has freed one.
func (cs *chunkSender) next() *chunkSlot {
	s := <-cs.free
	s.enc.Reset()
	return s
}

// fill makes the slot the Data message of step st of argument arg — the one
// place a transfer leg's frame is built. The payload is what the slot's encoder
// holds, or the fail marker when failed says the chunk could not be rendered.
// The receiver tells a raw chunk, an envelope and the marker apart by the
// payload's first byte.
func (s *chunkSlot) fill(token uint32, arg int, st dist.Step, reply, failed bool) {
	payload := s.enc.Bytes()
	if failed {
		payload = dseq.FailMarker
	}
	s.msg = wire.Data{
		RequestID: token, ArgIndex: uint32(arg), SrcRank: uint32(st.Src), DstRank: uint32(st.Dst),
		DstOff: uint64(st.DstOff), Count: uint64(st.N), Reply: reply, Flags: chunkFlags(st.Last), Payload: payload,
	}
}

// send queues a slot obtained from next, its msg filled in, behind the ones
// sent before it.
func (cs *chunkSender) send(s *chunkSlot) { cs.queue <- s }

// close waits for the queued chunks to be written, gives the ring back — the
// caller holds no slot by now — and returns the first write failure as a
// COMM_FAILURE.
func (cs *chunkSender) close() error {
	cs.queue <- nil
	cs.worker.Wait()
	err := cs.err
	cs.write, cs.err = nil, nil
	idleSenders.Lock()
	if len(idleSenders.rings) < maxIdleSenders {
		idleSenders.rings = append(idleSenders.rings, cs)
	}
	idleSenders.Unlock()
	return commFailure(err)
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

// sendChunks walks the sending side of one centralized leg, whatever its
// placement. For each of the nargs arguments the leg carries (arg(i) is nil for
// one it does not) the threads of comm collectively gather-marshal each step of
// its schedule straight into the bytes the transport writes, which thread 0
// alone holds: framed (ce > 0), a slot of the leg's sender cs, sent as a Data
// message and closed at the end; in the message (ce 0), the request or reply
// encoder msg, one sequence<octet> per argument after the header already in it.
// The schedule always runs to completion: a thread whose collective gather
// failed stops issuing gathers (the peers fail their next collective and stop
// too) while thread 0 keeps the wire schedule alive with fail markers, so the
// receiving loop stays aligned and the failure surfaces as one agreed error —
// a failed message is not sent at all. span closes a framed step's span. It
// returns the time spent gathering and this thread's first failure.
func sendChunks(comm *rts.Comm, cs *chunkSender, msg *cdr.Encoder, token uint32, reply bool, ce int, mask uint8,
	nargs int, arg func(i int) dseq.Transferable, span func(chunkStart time.Time)) (gather time.Duration, firstErr error) {
	for i := 0; i < nargs; i++ {
		seq := arg(i)
		if seq == nil {
			continue
		}
		whole := [1]dist.Move{{Len: seq.Len()}}
		sc := dist.Schedule{Moves: whole[:], CE: ce}
		for st, ok := sc.First(); ok; st, ok = sc.Next() {
			chunkStart := time.Now()
			var slot *chunkSlot
			var mark cdr.OctetsMark
			dst := msg
			if cs != nil {
				slot = cs.next()
				dst = slot.enc
			} else if msg != nil {
				mark = msg.BeginOctets()
			}
			if firstErr == nil {
				gatherStart := time.Now()
				firstErr = seq.GatherMarshalRangeTo(comm, 0, st.SrcOff, st.N, mask, dst)
				gather += time.Since(gatherStart)
			}
			if slot != nil {
				slot.fill(token, i, st, reply, firstErr != nil)
				cs.send(slot)
			} else if msg != nil {
				msg.EndOctets(mark)
			}
			if ce != 0 {
				span(chunkStart)
			}
		}
	}
	if cs != nil {
		if err := cs.close(); firstErr == nil {
			firstErr = err
		}
	}
	return gather, firstErr
}

// recvChunks walks the receiving side of one centralized leg: thread 0 takes
// each scheduled step of every argument the leg carries (sendChunks has nargs
// and arg) — framed, a chunk off w; in the message, the next sequence<octet> of
// msg, the request or reply it holds, as a sub-slice of it — and the threads of
// comm collectively scatter it. Only thread 0 needs w and msg. The schedule
// always runs to completion — after a failure thread 0 substitutes fail markers
// instead of taking, and a thread whose own share of a step was bad goes on to
// the next — so the collective loop cannot desynchronize, and the first failure
// is returned once the schedule is done, for the agreement that follows every
// receive leg.
func recvChunks(comm *rts.Comm, w *frameWait, msg *cdr.Decoder, reply bool, ce int,
	nargs int, arg func(i int) dseq.Transferable, span func(chunkStart time.Time)) error {
	var firstErr error
	for i := 0; i < nargs; i++ {
		seq := arg(i)
		if seq == nil {
			continue
		}
		whole := [1]dist.Move{{Len: seq.Len()}}
		sc := dist.Schedule{Moves: whole[:], CE: ce}
		for st, ok := sc.First(); ok; st, ok = sc.Next() {
			chunkStart := time.Now()
			var payload []byte
			var frame *wire.Data
			if comm.Rank() == 0 {
				var err error
				switch {
				case firstErr != nil:
					payload = dseq.FailMarker
				case ce == 0: // checkSteps has read these bytes once already
					payload, err = msg.ReadOctets()
				default:
					if frame, err = w.nextChunk(i, st, reply); err == nil {
						payload = frame.Payload
					}
				}
				if err != nil {
					firstErr, payload = err, dseq.FailMarker
				}
			}
			// The scatter copies the elements out (root's own share directly,
			// a peer's through a rented piece), so the frame goes back as soon
			// as it returns.
			err := seq.ScatterUnmarshalRange(comm, 0, st.DstOff, st.N, payload)
			if frame != nil {
				frame.Release()
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("arg %d: %w", i, err)
			}
			if ce != 0 {
				span(chunkStart)
			}
		}
	}
	return firstErr
}

// maxStreamChunks bounds the chunks one leg sends any one thread; the chunk
// size is raised until the schedule fits (chunkElemsFor). The bound keeps a
// whole leg inside one data sink (capacity bucketCapacity): reply chunks are
// written before the Reply message, so they may all be buffered before the
// client starts draining.
const maxStreamChunks = 1024

// legChunkElems is the placement rule of one centralized leg, applied by the
// side that knows the leg's lengths — the client to the In/InOut arguments it
// sends, the server to the Out/InOut results it is about to return — and to
// nothing else: length(i) is what argument i contributes to the leg, 0 for one
// it does not carry. The leg is framed, in the chunk size returned, when an
// argument spans two chunks of base, so the overlap pays; 0 places it in the
// message. A base of 0 — a client that offered no stream — is always in the
// message.
func legChunkElems(base, nargs int, length func(i int) int) int {
	for i := 0; i < nargs && base > 0; i++ {
		if length(i) >= 2*base {
			// A flow per argument into thread 0, and a header holds at most
			// 1<<12 arguments: never more flows than a sink holds.
			ce, _ := chunkElemsFor(base, 1, nargs, func(i int) (int, int) { return 0, length(i) })
			return ce
		}
	}
	return 0
}

// chunkElemsFor is the one chunk-size rule, of centralized and direct legs:
// base elements, doubled until no thread is the destination of more than
// maxStreamChunks steps, or no flow is cut any more. flow(k), of nflows, is n
// elements one source thread moves of one argument into thread dst of dsts — a
// centralized leg is a flow per argument into thread 0 — and ⌈n / ce⌉ steps
// however the plan scatters it. So no plan is too fine: the one refusal, more
// flows into a thread than its sink holds (bucketCapacity), takes source
// threads × carried arguments.
func chunkElemsFor(base, dsts, nflows int, flow func(k int) (dst, n int)) (int, error) {
	var few [16]int
	steps := few[:]
	if dsts > len(few) {
		steps = make([]int, dsts)
	}
	for ce := max(base, 1); ; ce *= 2 {
		clear(steps)
		most, cut := 0, false
		for k := 0; k < nflows; k++ {
			dst, n := flow(k)
			c := dist.ChunkCount(n, ce)
			steps[dst] += c
			most, cut = max(most, steps[dst]), cut || c > 1
		}
		if most > maxStreamChunks && cut {
			continue
		}
		if most > bucketCapacity {
			return 0, fmt.Errorf("core: %d flows feed one thread, more than the %d frames its sink holds", most, bucketCapacity)
		}
		return ce, nil
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

func chunkFlags(last bool) byte {
	f := byte(wire.DataFlagChunk)
	if last {
		f |= wire.DataFlagLast
	}
	return f
}

// frameWait is the one wait of a receive leg, whatever its shape: the frames of
// invocation token off ch, each awaited at most timeout (zero: no bound) and
// until stop (nil: no cancellation). The timer is armed by the leg's first
// wait, so a leg that expects nothing costs none, and is the collector's once
// the leg is over.
type frameWait struct {
	ch      <-chan *wire.Data
	stop    <-chan struct{}
	timeout time.Duration
	token   uint32
	t       *time.Timer
}

// takeFrame returns the next frame of the invocation. A frame of another
// invocation — a client's sink belongs to its lane, so one that arrived after
// the invocation before this one gave up on it may still sit there — is
// released and skipped. A nil frame is the connection-loss poison and, like
// every lost connection, a COMM_FAILURE: a client whose peer restarted or
// resized can tell "re-resolve" (naming.Stale) from a hard failure. The caller
// owns the frame it is given and must Release it.
func (w *frameWait) takeFrame() (*wire.Data, error) {
	var deadline <-chan time.Time
	if w.timeout > 0 {
		if w.t == nil {
			w.t = time.NewTimer(w.timeout)
		} else {
			w.t.Reset(w.timeout)
		}
		deadline = w.t.C
	}
	for {
		select {
		case d := <-w.ch:
			if d == nil {
				return nil, &orb.SystemException{RepoID: orb.RepoComm, Message: "data connection lost mid-transfer"}
			}
			if d.RequestID != w.token {
				d.Release()
				continue
			}
			return d, nil
		case <-w.stop:
			return nil, ErrStopped
		case <-deadline:
			return nil, fmt.Errorf("core: no data frame arrived within %v", w.timeout)
		}
	}
}

// nextChunk takes the next frame and checks that it is exactly step st of
// argument arg. On any error the frame (if any) has been released; on success
// the caller owns the frame and must Release it.
func (w *frameWait) nextChunk(arg int, st dist.Step, reply bool) (*wire.Data, error) {
	d, err := w.takeFrame()
	if err != nil {
		return nil, fmt.Errorf("stream chunk (arg %d, off %d): %w", arg, st.DstOff, err)
	}
	if err := checkStep(d, arg, st, reply); err != nil {
		d.Release()
		return nil, err
	}
	return d, nil
}

// checkStep refuses a frame that is not step st of argument arg of the leg
// (reply: the back one): argument, endpoints, offset, count and the chunk and
// last flags must all be the schedule's.
func checkStep(d *wire.Data, arg int, st dist.Step, reply bool) error {
	if d.ArgIndex != uint32(arg) || d.Reply != reply || !d.Chunked() || d.SrcRank != uint32(st.Src) ||
		d.DstOff != uint64(st.DstOff) || d.Count != uint64(st.N) || d.LastChunk() != st.Last {
		return fmt.Errorf("%w: chunk arg %d from thread %d off %d count %d last %v, want arg %d from thread %d off %d count %d last %v",
			ErrBadHeader, d.ArgIndex, d.SrcRank, d.DstOff, d.Count, d.LastChunk(), arg, st.Src, st.DstOff, st.N, st.Last)
	}
	return nil
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

// sendCentral is the centralized forward leg, the paper's §3.2 client side:
// thread 0 renders the header, the threads walk the schedule of the In/InOut
// arguments together (sendChunks), and where thread 0 puts each step is the
// leg's placement. In the message (iv.ce 0), behind the header, so the bytes the
// gather assembles are the bytes the transport writes, and thread 0 completes
// the exchange once the walk is done. Framed, the staged gather→pack→send
// becomes a pipeline: the request is launched first — the header travels ahead
// of the chunks, which the server buffers per token either way — and thread 0
// joins the walk as its sender, the chunks compressed with the mask pick
// shared. Local failures are carried through the walk, so a failure surfaces as
// one error instead of a stranded collective.
func (iv *invocation) sendCentral(scalars []byte) error {
	b := iv.b
	var (
		cs  *chunkSender
		msg *cdr.Encoder
	)
	if iv.comm.Rank() == 0 {
		packStart := time.Now()
		msg = orb.NewArgEncoder()
		iv.newHeader(Centralized, scalars).encode(msg)
		iv.phase(obs.PhasePack, packStart, time.Since(packStart))
		if iv.ce != 0 {
			iv.launch(msg.Bytes())
			cs, msg = newChunkSender(connWriter(iv.t.dataConn(0))), nil
		}
	}
	// Framed, chunk k+1 is gather-marshalled over the runtime system while chunk
	// k is on the wire, and the time spent waiting for the wire is not gathering;
	// in the message there is no wire to wait for, and the walk is the gather.
	gatherStart := time.Now()
	gather, err := sendChunks(iv.comm, cs, msg, iv.token, false, iv.ce, iv.mask,
		len(iv.args), func(i int) dseq.Transferable { return iv.legSeq(i, Out) },
		func(t time.Time) { iv.phase(obs.PhaseChunkSend, t, time.Since(t)) })
	if iv.ce == 0 {
		gather = time.Since(gatherStart)
	}
	iv.phase(obs.PhaseGather, gatherStart, gather)
	if msg != nil && err == nil {
		sendStart := time.Now()
		iv.reply.reply, iv.reply.err = b.client.InvokeAddr(iv.addr, iv.t.ref.Key, iv.op, msg.Bytes(), false)
		iv.phase(obs.PhaseSendRecv, sendStart, time.Since(sendStart))
	}
	return err
}

// recvCentral is the centralized back leg, placed as the reply announced: in
// chunks of ce the server wrote before the Reply on the same connection, so by
// now they are in the lane's sink in schedule order, or (ce 0) in the reply
// thread 0 holds, after its header.
func (iv *invocation) recvCentral(ce int) error {
	w := frameWait{ch: iv.sink, timeout: iv.b.client.Timeout, token: iv.token}
	return recvChunks(iv.comm, &w, iv.steps, true, ce, len(iv.args), func(i int) dseq.Transferable { return iv.legSeq(i, In) },
		func(t time.Time) { iv.phase(obs.PhaseChunkRecv, t, time.Since(t)) })
}
