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
// chunk schedule into steps of the one chunk-size rule's size (planDirect); each
// thread sends the steps it sources (sendSteps) and takes in the steps it sinks
// (recvSteps). Both sides derive the plans from the layouts in the header, so
// what one thread sends is what its peer expects, and no collective is
// involved: a leg that fails on one thread stops there and the agreement after
// it tells the others.

// planDirect plans one direct leg of nargs arguments into dsts threads:
// argument i moves from layout from to layout to, as layouts(i) says (a zero
// from for one the leg does not carry), in chunkElemsFor's size from base, the
// header's. Every thread of both sides gets the same plans and size, or error.
func planDirect(base, dsts, nargs int, layouts func(i int) (from, to dist.Layout, err error)) (plans [][]dist.Move, ce int, err error) {
	for i := 0; i < nargs; i++ {
		from, to, err := layouts(i)
		if err == nil && from.Ranks != 0 {
			if plans == nil {
				plans = make([][]dist.Move, nargs)
			}
			plans[i], err = dist.Plan(from, to)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	flows := make([][2]int, 0, 16) // destination thread, elements
	for _, plan := range plans {
		// A schedule that cuts nothing steps through whole flows.
		sc := dist.Schedule{Moves: plan, CE: math.MaxInt}
		for st, ok := sc.Next(); ok; st, ok = sc.Next() {
			flows = append(flows, [2]int{st.Dst, st.N})
		}
	}
	ce, err = chunkElemsFor(base, dsts, len(flows), func(k int) (int, int) { return flows[k][0], flows[k][1] })
	return plans, ce, err
}

// connSource resolves the connection a direct leg's frames for thread dst are
// written on: the client's data connection to a server thread, or the one a
// client thread attached to the invocation's bucket.
type connSource interface {
	dataConn(dst int) (*transport.Conn, error)
}

// target is the bound reference narrowed to one profile: every connection of
// an invocation routed there is resolved against it alone. It carries the
// binding's client so that a pointer into Binding.targets is a connSource by
// itself, and the invocation that hands one to a leg stays on the stack.
type target struct {
	client *orb.Client
	ref    orb.IOR
}

func (t *target) dataConn(dst int) (*transport.Conn, error) { return t.client.DataConn(t.ref, dst) }

// sendSteps is thread me's sending half of one direct leg: every step of the
// plans (one per argument, nil for one the leg does not carry) that starts
// here — its flows to the dsts threads, in schedule order — is marshalled out
// of arg(i) straight into a slot of the leg's sender and written to the thread
// it names, on the connection conns resolves for it — once per destination, at
// its first chunk. A thread that sources nothing builds no sender. It returns
// the time spent marshalling and the first failure, at which it stops.
func sendSteps(conns connSource, dsts int, token uint32, me int, reply bool, ce int, plans [][]dist.Move,
	arg func(i int) dseq.Transferable, span func(chunkStart time.Time)) (pack time.Duration, err error) {
	var cs *chunkSender
	for i, plan := range plans {
		for dst := 0; dst < dsts; dst++ {
			sc := dist.Schedule{Moves: dist.Flow(plan, me, dst), CE: ce}
			for st, ok := sc.Next(); ok && err == nil; st, ok = sc.Next() {
				if cs == nil {
					resolved := make([]*transport.Conn, dsts)
					cs = newChunkSender(func(m wire.Message) (err error) {
						dst := m.(*wire.Data).DstRank
						if resolved[dst] == nil {
							if resolved[dst], err = conns.dataConn(int(dst)); err != nil {
								return err
							}
						}
						return resolved[dst].WriteMessage(m)
					})
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

// recvSteps is thread me's receiving half of one direct leg from srcs source
// threads: a ledger over the steps of the plans that end here. It drains w
// until every one has arrived and been stored in arg(i) — each source's in
// schedule order, the sources in whatever order their connections deliver —
// and refuses a frame that is not its source's next step: off-plan, a
// duplicate, short, or from a thread the plan does not know. Every frame taken
// off w is released here, stored or not; what the leg leaves behind is the
// owner's to drain. A thread that sinks nothing waits for nothing.
func recvSteps(w *frameWait, me, srcs int, reply bool, ce int, plans [][]dist.Move,
	arg func(i int) dseq.Transferable, span func(chunkStart time.Time)) error {
	want := 0
	for _, plan := range plans {
		for src := 0; src < srcs; src++ {
			want += dist.ChunkCount(dist.MovedElems(dist.Flow(plan, src, me)), ce)
		}
	}
	if want == 0 {
		return nil
	}
	flows := make([]flow, srcs)
	for ; want > 0; want-- {
		chunkStart := time.Now()
		d, err := w.takeFrame()
		if err != nil {
			return fmt.Errorf("awaiting %d chunks: %w", want, err)
		}
		if src := int(d.SrcRank); src >= srcs {
			err = fmt.Errorf("%w: chunk from thread %d of a plan with %d sources", ErrBadHeader, src, srcs)
		} else if i, st, ok := flows[src].next(src, me, ce, plans); !ok {
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

// sendDirect is the direct forward leg (purely local): plan the flows, launch
// the header from the communicating thread, attach for return flows, and send
// this thread's share of every In/InOut argument to the threads that own it.
func (iv *invocation) sendDirect(scalars []byte) error {
	b, me, sRanks := iv.b, iv.comm.Rank(), iv.b.ref.Threads
	// Every thread holds the whole plan, so a leg it refuses is refused by all
	// of them alike, before the header or a byte of data leaves.
	plans, ce, err := planDirect(iv.ce, sRanks, len(iv.args), func(i int) (from, to dist.Layout, err error) {
		if a := iv.args[i]; a.Dir != Out {
			from = a.Seq.Layout()
			to, err = iv.desc.Args[i].specOrBlock().Layout(a.Seq.Len(), sRanks)
		}
		return from, to, err
	})
	if err != nil {
		return err
	}
	if me == 0 {
		e := orb.NewArgEncoder()
		iv.newHeader(Multiport, scalars).encode(e)
		iv.launch(e.Bytes())
	}
	// A server thread answers on the connection this thread's first frame
	// reached it by. An InOut argument returns along the moves it went out by,
	// reversed, so its sources have all been sent to; an Out result's length is
	// unknown, so any server thread may have to reach us: attach to every one
	// this leg sends nothing.
	if slices.ContainsFunc(iv.args, func(a DistArg) bool { return a.Dir == Out }) {
		for r := 0; r < sRanks; r++ {
			if slices.ContainsFunc(plans, func(plan []dist.Move) bool { return len(dist.Flow(plan, me, r)) > 0 }) {
				continue
			}
			attach := &wire.Data{RequestID: iv.token, SrcRank: uint32(me), DstRank: uint32(r), Count: 0}
			if err := b.client.SendData(iv.t.ref, attach); err != nil {
				return err
			}
		}
	}
	packStart := time.Now()
	pack, err := sendSteps(iv.t, sRanks, iv.token, me, false, ce, plans,
		func(i int) dseq.Transferable { return iv.args[i].Seq },
		func(t time.Time) { iv.phase(obs.PhaseChunkSend, t, time.Since(t)) })
	iv.phase(obs.PhasePack, packStart, pack)
	return err
}

// recvDirect is the direct back leg (purely local; each wait bounded by the
// client timeout): the reverse plans, from the server's layout of every result
// to this thread's, in the chunk size the forward leg started from, name the
// return flows to expect.
func (iv *invocation) recvDirect() error {
	plans, ce, err := planDirect(iv.ce, iv.comm.Size(), len(iv.args), func(i int) (from, to dist.Layout, err error) {
		if a := iv.args[i]; a.Dir != In {
			from, err = iv.desc.Args[i].specOrBlock().Layout(a.Seq.Len(), iv.b.ref.Threads)
			to = a.Seq.Layout()
		}
		return from, to, err
	})
	if err != nil {
		return err
	}
	w := frameWait{ch: iv.sink, timeout: iv.b.client.Timeout, token: iv.token}
	return recvSteps(&w, iv.comm.Rank(), iv.b.ref.Threads, true, ce, plans,
		func(i int) dseq.Transferable { return iv.args[i].Seq },
		func(t time.Time) { iv.phase(obs.PhaseChunkRecv, t, time.Since(t)) })
}
