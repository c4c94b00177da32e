package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Direct transfers (the multi-port method, paper §3.3): the argument data flows
// between the owning threads themselves. A leg's plans are dist.Plan between
// the client's and the server's layout of every argument it carries, cut by the
// chunk schedule into steps of the one chunk-size rule's size (plan); each
// thread sends the steps it sources (send) and takes in the steps it sinks
// (recv). Both sides derive the plans from the layouts in the header, so what
// one thread sends is what its peer expects, and no collective is involved: a
// leg that fails on one thread stops there and the agreement after it tells the
// others.

// directLeg is the storage one direct leg plans into and walks with, kept by an
// owner that runs one such leg at a time — a binding's lane (its forward and
// back legs), an object's thread (its receive and send legs) — and valid for
// one leg. Like a decoded layout, it keeps at most dist.KeptIntervals entries
// in one array: a larger one is built fresh and let go after its leg (trim).
type directLeg struct {
	plans [][]dist.Move // per argument: its plan, nil where the leg does not carry it
	ce    int           // the leg's chunk size
	block dist.Layout   // peerLayout's last Block layout
	flows []flow        // recv's ledger: where each source thread stands
}

// plan plans the leg for nargs arguments into dsts threads: argument i moves
// from layout from to layout to, as layouts(i) says (a zero from for one the
// leg does not carry), in chunkElemsFor's size from base, the header's. Every
// thread of both sides gets the same plans and size, or error.
func (l *directLeg) plan(base, dsts, nargs int, layouts func(i int) (from, to dist.Layout, err error)) error {
	l.trim() // after a planning that failed
	l.plans = slices.Grow(l.plans[:0], nargs)[:nargs]
	for i := range l.plans {
		from, to, err := layouts(i)
		if err == nil && from.Ranks != 0 {
			l.plans[i], err = dist.PlanInto(l.plans[i], from, to)
		} else {
			l.plans[i] = nil
		}
		if err != nil {
			return err
		}
	}
	flows := make([][2]int, 0, 16) // destination thread, elements
	for _, plan := range l.plans {
		// A schedule that cuts nothing steps through whole flows.
		sc := dist.Schedule{Moves: plan, CE: math.MaxInt}
		for st, ok := sc.Next(); ok; st, ok = sc.Next() {
			flows = append(flows, [2]int{st.Dst, st.N})
		}
	}
	var err error
	l.ce, err = chunkElemsFor(base, dsts, len(flows), func(k int) (int, int) { return flows[k][0], flows[k][1] })
	return err
}

// trim lets go of what the leg holds over the bound — a plan of a fine layout,
// a move an element, as soon as its leg is done — and of the ledger's views.
func (l *directLeg) trim() {
	plans := l.plans[:cap(l.plans)]
	for i := range plans {
		if cap(plans[i]) > dist.KeptIntervals {
			plans[i] = nil
		}
	}
	if cap(l.block.Intervals) > dist.KeptIntervals {
		l.block = dist.Layout{}
	}
	if cap(l.flows) > dist.KeptIntervals {
		l.flows = nil
	}
	clear(l.flows)
}

// peerLayout is spec's layout of length elements over ranks threads, for the
// plan of one argument: a Block one computed into the leg's storage, valid
// until the next, any other built fresh.
func (l *directLeg) peerLayout(spec dist.Spec, length, ranks int) (dist.Layout, error) {
	if _, ok := spec.(dist.Block); !ok {
		return spec.Layout(length, ranks)
	}
	err := dist.Block{}.LayoutInto(&l.block, length, ranks)
	return l.block, err
}

// connSource resolves the connection a leg's frames for thread dst are written
// on: the client's data connection to a server thread (target), the one a
// client thread attached to the invocation's bucket (dataBucket), or the one a
// call arrived on (pendingCall).
type connSource interface {
	dataConn(dst int) (*transport.Conn, error)
}

// target is the bound reference narrowed to one profile: every connection of
// an invocation routed there is resolved against it alone, by the addresses of
// its endpoints, rendered once at bind. It carries the binding's client so
// that a pointer into Binding.targets is a connSource by itself, and the
// invocation that hands one to a leg stays on the stack.
type target struct {
	client *orb.Client
	ref    orb.IOR
	addrs  []string // ref.Endpoints[k].Addr(), for every k
}

func newTarget(client *orb.Client, ref orb.IOR) target {
	t := target{client: client, ref: ref, addrs: make([]string, len(ref.Endpoints))}
	for k, ep := range ref.Endpoints {
		t.addrs[k] = ep.Addr()
	}
	return t
}

// dataConn resolves thread dst's connection by the first endpoint that names
// it, as orb.IOR.EndpointFor finds it.
func (t *target) dataConn(dst int) (*transport.Conn, error) {
	k := slices.IndexFunc(t.ref.Endpoints, func(ep orb.Endpoint) bool { return ep.Rank == dst })
	if k < 0 {
		_, err := t.ref.EndpointFor(dst)
		return nil, err
	}
	return t.client.DataConn(t.addrs[k])
}

// send is thread me's sending half of the leg: every step of its plans that
// starts here — its flows to the dsts threads, in schedule order — is
// marshalled out of arg(i) straight into a slot of the leg's sender and written
// to the thread it names, on the connection conns resolves for it. A thread
// that sources nothing builds no sender. It returns the time spent marshalling
// and the first failure, at which it stops.
func (l *directLeg) send(conns connSource, dsts int, token uint32, me int, reply bool,
	arg func(i int) dseq.Transferable, span func(chunkStart time.Time)) (pack time.Duration, err error) {
	defer l.trim()
	var cs *chunkSender
	for i, plan := range l.plans {
		for dst := 0; dst < dsts; dst++ {
			sc := dist.Schedule{Moves: dist.Flow(plan, me, dst), CE: l.ce}
			for st, ok := sc.Next(); ok && err == nil; st, ok = sc.Next() {
				if cs == nil {
					cs = newChunkSender(conns)
				}
				chunkStart := time.Now()
				slot := cs.next()
				packStart := time.Now()
				err = arg(i).MarshalStepTo(st, 0, slot.enc)
				pack += time.Since(packStart)
				if err != nil {
					cs.free <- slot // nothing to send: the ring gets it back whole
					continue
				}
				slot.fill(token, i, st, reply, false)
				cs.send(slot)
				span(chunkStart)
			}
		}
	}
	if cs != nil {
		if cerr := cs.close(); err == nil {
			err = cerr
		}
	}
	return pack, err
}

// flow is where one source thread stands in the schedule of a direct leg: the
// next plan to open and the cursor in the open one — one connection delivers
// in order, so a source's frames arrive in schedule order, and the flows of
// different sources advance independently. next returns the next step thread
// src owes thread me, and the argument it belongs to.
type flow struct {
	arg int
	sc  dist.Schedule
}

func (f *flow) next(src, me, ce int, plans [][]dist.Move) (int, dist.Step, bool) {
	for {
		if st, ok := f.sc.Next(); ok {
			return f.arg - 1, st, true
		} else if f.arg == len(plans) {
			return 0, dist.Step{}, false
		}
		f.sc = dist.Schedule{Moves: dist.Flow(plans[f.arg], src, me), CE: ce}
		f.arg++
	}
}

// recv is thread me's receiving half of the leg from srcs source threads: a
// ledger over the steps of its plans that end here. It drains w until every one
// has arrived and been stored in arg(i) — each source's in schedule order, the
// sources in whatever order their connections deliver — and refuses a frame
// that is not its source's next step: off-plan, a duplicate, short, or from a
// thread the plan does not know. Every frame taken off w is released here,
// stored or not; what the leg leaves behind is the owner's to drain. A thread
// that sinks nothing waits for nothing.
func (l *directLeg) recv(w *frameWait, me, srcs int, reply bool,
	arg func(i int) dseq.Transferable, span func(chunkStart time.Time)) error {
	defer l.trim()
	want := 0
	for _, plan := range l.plans {
		for src := 0; src < srcs; src++ {
			want += dist.ChunkCount(dist.MovedElems(dist.Flow(plan, src, me)), l.ce)
		}
	}
	if want == 0 {
		return nil
	}
	flows := slices.Grow(l.flows[:0], srcs)[:srcs] // clean: trim cleared what the last leg used
	l.flows = flows
	for ; want > 0; want-- {
		chunkStart := time.Now()
		d, err := w.takeFrame()
		if err != nil {
			return fmt.Errorf("awaiting %d chunks: %w", want, err)
		}
		if src := int(d.SrcRank); src >= srcs {
			err = fmt.Errorf("%w: chunk from thread %d of a plan with %d sources", ErrBadHeader, src, srcs)
		} else if i, st, ok := flows[src].next(src, me, l.ce, l.plans); !ok {
			err = fmt.Errorf("%w: chunk of arg %d at offset %d after thread %d sent all it owed", ErrBadHeader, d.ArgIndex, d.DstOff, src)
		} else if err = checkStep(d, i, st, reply); err == nil {
			err = arg(i).UnmarshalStep(st, d.Payload)
		}
		// UnmarshalStep copied the elements out (or the chunk was refused), so
		// the borrowed transport buffer goes back to the pool either way.
		d.Release()
		if err != nil {
			return err
		}
		span(chunkStart)
	}
	return nil
}

// sendDirect is the direct forward leg (purely local): plan the flows into the
// lane's forward leg, launch the header from the communicating thread, attach
// for return flows, and send this thread's share of every In/InOut argument to
// the threads that own it.
func (iv *invocation) sendDirect(scalars []byte) error {
	b, me, sRanks := iv.b, iv.comm.Rank(), iv.b.ref.Threads
	leg := &b.lane.fwd
	// Every thread holds the whole plan, so a leg it refuses is refused by all
	// of them alike, before the header or a byte of data leaves.
	if err := leg.plan(iv.ce, sRanks, len(iv.args), func(i int) (from, to dist.Layout, err error) {
		if a := iv.args[i]; a.Dir != Out {
			from = a.Seq.Layout()
			to, err = leg.peerLayout(iv.desc.Args[i].specOrBlock(), a.Seq.Len(), sRanks)
		}
		return from, to, err
	}); err != nil {
		return err
	}
	if me == 0 {
		iv.launch(iv.encodeRequest(Multiport, scalars).Bytes())
	}
	// A server thread answers on the connection this thread's first frame
	// reached it by. An InOut argument returns along the moves it went out by,
	// reversed, so its sources have all been sent to; an Out result's length is
	// unknown, so any server thread may have to reach us: attach to every one
	// this leg sends nothing.
	if slices.ContainsFunc(iv.args, func(a DistArg) bool { return a.Dir == Out }) {
		for r := 0; r < sRanks; r++ {
			if slices.ContainsFunc(leg.plans, func(plan []dist.Move) bool { return len(dist.Flow(plan, me, r)) > 0 }) {
				continue
			}
			conn, err := iv.t.dataConn(r)
			if err == nil {
				err = conn.WriteMessage(&wire.Data{RequestID: iv.token, SrcRank: uint32(me), DstRank: uint32(r), Count: 0})
			}
			if err != nil {
				return err
			}
		}
	}
	packStart := time.Now()
	pack, err := leg.send(iv.t, sRanks, iv.token, me, false,
		func(i int) dseq.Transferable { return iv.args[i].Seq },
		func(t time.Time) { iv.phase(obs.PhaseChunkSend, t, time.Since(t)) })
	iv.phase(obs.PhasePack, packStart, pack)
	return err
}

// recvDirect is the direct back leg (purely local; each wait bounded by the
// client timeout): the reverse plans, planned into the lane's back leg from the
// server's layout of every result to this thread's, in the chunk size the
// forward leg started from, name the return flows to expect.
func (iv *invocation) recvDirect() error {
	leg := &iv.b.lane.back
	if err := leg.plan(iv.ce, iv.comm.Size(), len(iv.args), func(i int) (from, to dist.Layout, err error) {
		if a := iv.args[i]; a.Dir != In {
			from, err = leg.peerLayout(iv.desc.Args[i].specOrBlock(), a.Seq.Len(), iv.b.ref.Threads)
			to = a.Seq.Layout()
		}
		return from, to, err
	}); err != nil {
		return err
	}
	w := frameWait{s: iv.sink, timeout: iv.b.client.Timeout, token: iv.token}
	return leg.recv(&w, iv.comm.Rank(), iv.b.ref.Threads, true,
		func(i int) dseq.Transferable { return iv.args[i].Seq },
		func(t time.Time) { iv.phase(obs.PhaseChunkRecv, t, time.Since(t)) })
}
