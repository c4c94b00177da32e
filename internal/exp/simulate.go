package exp

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// elemBytes is the size of the element every simulated sequence holds, a double.
const elemBytes = 8

// SimulateCentralized runs one blocking invocation with a single "in"
// distributed sequence of elems doubles through the centralized transfer
// method (§3.2) on platform p: the client's threads synchronize and gather the
// argument at the communicating thread, which marshals and sends it chunk by
// chunk; the server's communicating thread receives, unmarshals and scatters;
// the reply is one small message.
func SimulateCentralized(p Platform, c, s, elems int) (Breakdown, error) {
	return simulate(p, c, s, elems, true, nil, nil, nil)
}

// SimulateCentralizedProbe is SimulateCentralized with a Probe recording
// virtual-time spans and traffic counters (nil disables both).
func SimulateCentralizedProbe(p Platform, c, s, elems int, probe *Probe) (Breakdown, error) {
	return simulate(p, c, s, elems, true, nil, nil, probe)
}

// SimulateMultiport is the same invocation through the multi-port method
// (§3.3): the invocation header is delivered centrally, then every client
// thread marshals the parts it owns and sends them directly to the owning
// server threads; each server thread receives what the plan owes it,
// unmarshals, synchronizes, and the communicating thread replies.
func SimulateMultiport(p Platform, c, s, elems int) (Breakdown, error) {
	return simulate(p, c, s, elems, false, dist.Block{}, dist.Block{}, nil)
}

// SimulateMultiportProbe is SimulateMultiport with a Probe recording
// virtual-time spans and traffic counters (nil disables both).
func SimulateMultiportProbe(p Platform, c, s, elems int, probe *Probe) (Breakdown, error) {
	return simulate(p, c, s, elems, false, dist.Block{}, dist.Block{}, probe)
}

// SimulateMultiportUneven is SimulateMultiport with explicit uneven
// proportions on either side (nil means uniform blockwise), reproducing the
// §3.3 uneven-split check.
func SimulateMultiportUneven(p Platform, c, s, elems int, clientProps, serverProps []int) (Breakdown, error) {
	return simulate(p, c, s, elems, false, propsSpec(clientProps), propsSpec(serverProps), nil)
}

func propsSpec(props []int) dist.Spec {
	if props == nil {
		return dist.Block{}
	}
	return dist.Proportions{P: props}
}

// flow is one (source thread, sink thread) pair a plan connects: the chunks
// delivered and not yet received, and the send window's tokens.
type flow struct{ delivered, credits *netsim.Queue }

// simulate interprets one invocation's argument leg on platform p. It runs no
// protocol of its own: the leg's plan is built as internal/core builds it — the
// one-move plan 0 → 0 over the whole argument for a centralized leg (the
// layouts play no part, as in core's sendChunks), dist.Plan between the two
// layouts for a multi-port one — and cut by the engine's own dist.Schedule at
// the platform's chunk size; every step is charged on p at the thread it names
// as its source and at the one it names as its sink. What a method adds around
// the walk is behind the same test the engine's shape is: central.
func simulate(p Platform, c, s, elems int, central bool, clientSpec, serverSpec dist.Spec, probe *Probe) (Breakdown, error) {
	if c < 1 || s < 1 || elems < 0 {
		return Breakdown{}, fmt.Errorf("exp: invalid configuration c=%d s=%d elems=%d", c, s, elems)
	}
	// Refused before a process exists: a schedule of no elements per chunk
	// would send nothing, a fraction of an element is not a step, and a sender
	// with no window never sends.
	if p.ChunkBytes < elemBytes || p.ChunkBytes%elemBytes != 0 || p.Window < 1 {
		return Breakdown{}, fmt.Errorf("exp: invalid platform ChunkBytes=%d Window=%d: the chunk must be a positive multiple of the %d-byte element, the window at least 1",
			p.ChunkBytes, p.Window, elemBytes)
	}
	plan := []dist.Move{{Len: elems}}
	if !central {
		clientLayout, err := clientSpec.Layout(elems, c)
		if err != nil {
			return Breakdown{}, err
		}
		serverLayout, err := serverSpec.Layout(elems, s)
		if err != nil {
			return Breakdown{}, err
		}
		if plan, err = dist.Plan(clientLayout, serverLayout); err != nil {
			return Breakdown{}, err
		}
	}
	ce, nBytes := p.ChunkBytes/elemBytes, elems*elemBytes
	// The threads a leg's data passes through: all of them multi-port, the
	// communicating one centralized (the others idle in the synchronizations,
	// their memory traffic charged at the root).
	carries := func(rank int) bool { return !central || rank == 0 }

	sim := netsim.NewSim()
	client := p.Client.build()
	server := p.Server.build()
	link := &netsim.Link{Bandwidth: p.Link.Bandwidth, Latency: p.Link.Latency, PerMessage: p.Link.PerMessage}

	entry := sim.NewBarrier(c)
	exit := sim.NewBarrier(c)
	serverSync := sim.NewBarrier(s)
	headerAt := sim.NewWaitGroup(1)
	replyQ := sim.NewQueue(0)
	flows := map[[2]int]flow{}
	for _, m := range plan {
		pair := [2]int{m.SrcRank, m.DstRank}
		if _, ok := flows[pair]; ok {
			continue
		}
		flows[pair] = flow{sim.NewQueue(0), sim.NewQueue(0)}
		for w := 0; w < p.Window; w++ {
			flows[pair].credits.PutAsync(struct{}{})
		}
	}

	var bd Breakdown

	// Client computing threads.
	for i := 0; i < c; i++ {
		sim.Spawn(fmt.Sprintf("client/%d", i), client, func(pr *netsim.Proc) {
			entry.Wait(pr)
			start := sim.Now()

			if i == 0 && central {
				// Gather: the communicating thread receives every other
				// thread's part over the RTS (one shared-memory message each).
				for r := 1; r < c; r++ {
					pr.MemCopy(nBytes / c)
				}
				bd.Gather = sim.Now() - start
				probe.span(obs.PhaseGather, 0, start, sim.Now())
			} else if i == 0 {
				// The invocation header travels centrally, first and alone.
				pr.Delay(client.SyscallDelay())
				pr.Transmit(link, netsim.ClientToServer, p.HeaderBytes, headerAt.Done)
			}

			// The steps that start here: marshal, enter the kernel, wait for
			// window credit, put the chunk on the link.
			s0 := sim.Now()
			var packTotal float64
			sc := dist.Schedule{Moves: plan, CE: ce}
			for st, ok := sc.Next(); ok; st, ok = sc.Next() {
				if st.Src != i {
					continue
				}
				f, n := flows[[2]int{st.Src, st.Dst}], st.N*elemBytes
				t0 := sim.Now()
				pr.Pack(n)
				packTotal += sim.Now() - t0
				pr.Delay(client.SyscallDelay())
				f.credits.Get(pr)
				probe.count("exp.sim.chunks", 1)
				probe.count("exp.sim.bytes", uint64(n))
				pr.Transmit(link, netsim.ClientToServer, n, func() { f.delivered.PutAsync(struct{}{}) })
			}
			bd.Send = max(bd.Send, sim.Now()-s0)
			bd.Pack = max(bd.Pack, packTotal)
			if carries(i) {
				probe.spanDur(obs.PhasePack, i, s0, packTotal)
			}

			// Post-invocation synchronization: the communicating thread
			// waits for the reply; everyone meets in the exit barrier.
			if i == 0 {
				replyQ.Get(pr)
				probe.span(obs.PhaseSendRecv, 0, s0, sim.Now())
			}
			b0 := sim.Now()
			exit.Wait(pr)
			if !central {
				bd.Barrier = max(bd.Barrier, sim.Now()-b0)
				probe.span(obs.PhaseBarrier, i, b0, sim.Now())
			}
			if i == 0 {
				bd.Total = sim.Now() - start
				probe.span(obs.PhaseInvoke, 0, start, sim.Now())
			}
		})
	}

	// Server computing threads.
	for j := 0; j < s; j++ {
		sim.Spawn(fmt.Sprintf("server/%d", j), server, func(pr *netsim.Proc) {
			if !central {
				headerAt.Wait(pr)
				// Intra-server delivery of the request header to this thread.
				pr.Delay(p.Server.MemLatency)
			}

			// The steps that end here, one source at a time. That order is the
			// 1997 run-time's, not the protocol's: a NexusLite thread sat in a
			// blocking receive on one flow until that flow was done — what
			// sequentializes concurrent senders when s is small (§3.3) — while
			// the engine's direct receive leg takes frames in the order they arrive.
			r0 := sim.Now()
			for src := 0; src < c; src++ {
				sc := dist.Schedule{Moves: plan, CE: ce}
				for st, ok := sc.Next(); ok; st, ok = sc.Next() {
					if st.Src != src || st.Dst != j {
						continue
					}
					f := flows[[2]int{src, j}]
					f.delivered.Get(pr)
					pr.Delay(server.SyscallDelay())
					pr.Unpack(st.N * elemBytes)
					f.credits.PutAsync(struct{}{})
				}
			}
			bd.RecvUnpack = max(bd.RecvUnpack, sim.Now()-r0)
			if carries(j) {
				probe.span(obs.PhaseRecvXfer, j, r0, sim.Now())
			}

			if central && j == 0 {
				// Scatter to the other computing threads over the RTS.
				sc0 := sim.Now()
				for r := 1; r < s; r++ {
					pr.MemCopy(nBytes / s)
				}
				bd.Scatter = sim.Now() - sc0
				probe.span(obs.PhaseScatter, 0, sc0, sim.Now())
			}

			// (The upcall itself is a no-op for the transfer benchmarks.)

			// Post-invocation synchronization of the server's threads, then
			// the completion reply from the communicating thread.
			serverSync.Wait(pr)
			if j == 0 {
				rep0 := sim.Now()
				pr.Delay(server.SyscallDelay())
				pr.Transmit(link, netsim.ServerToClient, p.HeaderBytes, func() { replyQ.PutAsync(struct{}{}) })
				if central { // a multi-port trace ends at the receive legs
					probe.span(obs.PhaseSendXfer, 0, rep0, sim.Now())
				}
			}
		})
	}

	if _, err := sim.Run(); err != nil {
		return Breakdown{}, err
	}
	return bd, nil
}
