package core

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/wire"
)

// Direct transfers (the multi-port method, paper §3.3): the argument data flows
// between the owning threads themselves, one Data message per move of the
// redistribution plan between the client's and the server's layouts. Both
// sides derive the plan from the layouts in the header, so what one thread
// sends (sendMoves) is what its peer expects (recvMoves).

// sendMoves ships what thread me owes its peers of argument argIdx, out of
// seq: one Data message per move of the plan that starts here. write delivers
// a message to the thread it names in DstRank. It returns the time spent
// marshalling and the first failure, at which it stops.
func sendMoves(write func(*wire.Data) error, token uint32, argIdx, me int, reply bool,
	plan []dist.Move, seq dseq.Transferable) (pack time.Duration, _ error) {
	for _, m := range plan {
		if m.SrcRank != me {
			continue
		}
		packStart := time.Now()
		payload, err := seq.MarshalRange(m.SrcOff, m.Len)
		pack += time.Since(packStart)
		if err != nil {
			return pack, err
		}
		err = write(&wire.Data{
			RequestID: token,
			ArgIndex:  uint32(argIdx),
			SrcRank:   uint32(me),
			DstRank:   uint32(m.DstRank),
			DstOff:    uint64(m.DstOff),
			Count:     uint64(m.Len),
			Reply:     reply,
			Payload:   payload,
		})
		if err != nil {
			return pack, err
		}
	}
	return pack, nil
}

// transfers is what one thread expects of one direct leg: per argument and
// local offset, how many elements land there and in which sequence.
type transfers map[transferKey]transfer

type transferKey struct {
	arg uint32
	off uint64
}

type transfer struct {
	n   int
	seq dseq.Transferable
}

// expect adds what thread me's part of argument argIdx, seq, is owed by the
// threads that hold it laid out as from.
func (ts transfers) expect(argIdx int, seq dseq.Transferable, from dist.Layout, me int) error {
	plan, err := dist.Plan(from, seq.Layout())
	for _, m := range plan {
		if m.DstRank == me {
			ts[transferKey{uint32(argIdx), uint64(m.DstOff)}] = transfer{m.Len, seq}
		}
	}
	return err
}

// recvMoves drains ch until every transfer in want has arrived and been
// stored, in whatever order the senders' connections deliver them. Every frame
// taken off ch is released here, stored or not; what the leg leaves in ch is
// the owner's to drain. Each wait is takeFrame's: bounded by timeout (zero:
// unbounded) and by stop (nil: no cancellation).
func recvMoves(ch <-chan *wire.Data, stop <-chan struct{}, timeout time.Duration, token uint32, reply bool, want transfers) error {
	t := chunkTimer(timeout)
	if t != nil {
		defer t.Stop()
	}
	for len(want) > 0 {
		d, err := takeFrame(ch, stop, t, timeout, token)
		if err != nil {
			return fmt.Errorf("awaiting %d transfers: %w", len(want), err)
		}
		k := transferKey{d.ArgIndex, d.DstOff}
		tr, ok := want[k]
		switch {
		case !ok || d.Reply != reply:
			err = fmt.Errorf("core: unexpected transfer at offset %d for arg %d", d.DstOff, d.ArgIndex)
		case int(d.Count) != tr.n:
			err = fmt.Errorf("core: transfer at offset %d for arg %d has %d elements, want %d", d.DstOff, d.ArgIndex, d.Count, tr.n)
		default:
			err = tr.seq.UnmarshalRange(int(d.DstOff), d.Payload)
		}
		// UnmarshalRange copied the elements out (or the transfer was
		// rejected), so the borrowed transport buffer goes back to the pool
		// either way.
		d.Release()
		if err != nil {
			return err
		}
		delete(want, k)
	}
	return nil
}

// sendDirect is the direct forward leg (purely local): plan the flows, launch
// the header from the communicating thread, attach for return flows, and send
// this thread's share of every In/InOut argument to the threads that own it.
func (iv *invocation) sendDirect(scalars []byte) error {
	b, me, sRanks := iv.b, iv.comm.Rank(), iv.b.ref.Threads
	plans := make([][]dist.Move, len(iv.args))
	sendTargets := map[int]bool{}
	attachTargets := map[int]bool{}
	for i, a := range iv.args {
		if a.Dir == Out {
			// The result length is unknown; conservatively attach to every
			// server thread so any of them can reach us.
			for r := 0; r < sRanks; r++ {
				attachTargets[r] = true
			}
			continue
		}
		sl, err := iv.desc.Args[i].specOrBlock().Layout(a.Seq.Len(), sRanks)
		if err != nil {
			return err
		}
		if plans[i], err = dist.Plan(a.Seq.Layout(), sl); err != nil {
			return err
		}
		for _, m := range plans[i] {
			if m.SrcRank == me {
				sendTargets[m.DstRank] = true
			}
		}
		if a.Dir == InOut {
			rev, err := dist.Plan(sl, a.Seq.Layout())
			if err != nil {
				return err
			}
			for _, m := range rev {
				if m.DstRank == me {
					attachTargets[m.SrcRank] = true
				}
			}
		}
	}
	if me == 0 {
		e := orb.NewArgEncoder()
		iv.newHeader(Multiport, scalars).encode(e)
		iv.launch(e.Bytes())
	}
	// Attach to return-flow sources we are not already sending to.
	for r := range attachTargets {
		if sendTargets[r] {
			continue
		}
		attach := &wire.Data{RequestID: iv.token, SrcRank: uint32(me), DstRank: uint32(r), Count: 0}
		if err := b.client.SendData(b.ref, attach); err != nil {
			return err
		}
	}
	write := func(d *wire.Data) error { return b.client.SendData(b.ref, d) }
	packStart := time.Now()
	var pack time.Duration
	var err error
	for i := 0; i < len(plans) && err == nil; i++ {
		var dur time.Duration
		dur, err = sendMoves(write, iv.token, i, me, false, plans[i], iv.args[i].Seq)
		pack += dur
	}
	iv.phase(obs.PhasePack, packStart, pack)
	return err
}

// recvDirect is the direct back leg (purely local; each wait bounded by the
// client timeout): the reverse plan, from the server's layout of every result
// to this thread's, names the return flows to expect.
func (iv *invocation) recvDirect() error {
	want := transfers{}
	for i, a := range iv.args {
		if a.Dir == In {
			continue
		}
		sl, err := iv.desc.Args[i].specOrBlock().Layout(a.Seq.Len(), iv.b.ref.Threads)
		if err != nil {
			return err
		}
		if err := want.expect(i, a.Seq, sl, iv.comm.Rank()); err != nil {
			return err
		}
	}
	return recvMoves(iv.sink, nil, iv.b.client.Timeout, iv.token, true, want)
}
