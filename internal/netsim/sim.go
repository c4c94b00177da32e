// Package netsim is a deterministic discrete-event simulator of the paper's
// experimental platform: SPMD computing threads running on multiprocessor
// machines joined by a shared network link.
//
// The paper's measurements (Tables 1 and 2, Figure 4) were taken on a 4-CPU
// SGI Onyx client and a 10-CPU SGI Power Challenge server over a dedicated
// ATM link. Reproducing the *shape* of those results requires reproducing
// the mechanisms the paper identifies, not just end-to-end formulas:
//
//   - marshalling and memory-copy costs proportional to data volume,
//     parallelized across threads in the multi-port method;
//   - a single shared link whose capacity is serialized chunk by chunk, so
//     concurrent transfers interleave rather than queue whole messages
//     (§3.3's observation that "data transfer from two separate computing
//     threads of the client did not happen sequentially, but was
//     interleaved");
//   - operating-system scheduler interference: a thread that issues a
//     network operation is descheduled, and the more threads share the
//     machine the longer it waits to run again (§3.2's explanation for send
//     time growing with thread count);
//   - synchronous large sends: a sender cannot run ahead of its receiver by
//     more than a small window (the paper notes sends "are in practice
//     synchronous operations" under NexusLite).
//
// The engine is a conventional event-driven coroutine simulator: processes
// are goroutines that the single driver resumes one at a time, so all
// simulation state is data-race free and runs are bit-for-bit reproducible.
package netsim

import (
	"container/heap"
	"fmt"
)

// Sim is a discrete-event simulation. Create with NewSim, populate with
// Spawn, then Run.
type Sim struct {
	now    float64 // seconds
	events eventHeap
	seq    uint64
	yield  chan struct{}
	nProcs int
	err    error
}

// NewSim returns an empty simulation at time zero.
func NewSim() *Sim {
	return &Sim{yield: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

type event struct {
	at  float64
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (s *Sim) push(at float64, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.events, event{at: at, seq: s.seq, fn: fn})
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t float64, fn func()) { s.push(t, fn) }

// Proc is one simulated thread of control.
type Proc struct {
	sim     *Sim
	name    string
	machine *Machine
	resume  chan struct{}
	done    bool
}

// Machine returns the machine the process runs on.
func (p *Proc) Machine() *Machine { return p.machine }

// Sim returns the owning simulation.
func (p *Proc) Sim() *Sim { return p.sim }

// Spawn creates a process on machine m executing fn, starting at the
// current virtual time.
func (s *Sim) Spawn(name string, m *Machine, fn func(*Proc)) *Proc {
	p := &Proc{sim: s, name: name, machine: m, resume: make(chan struct{})}
	s.nProcs++
	if m != nil {
		m.threads++
	}
	s.push(s.now, func() {
		go func() {
			<-p.resume
			defer func() {
				if r := recover(); r != nil {
					p.sim.err = fmt.Errorf("netsim: process %s panicked: %v", p.name, r)
				}
				p.done = true
				p.sim.nProcs--
				if p.machine != nil {
					p.machine.threads--
				}
				p.sim.yield <- struct{}{}
			}()
			fn(p)
		}()
		p.transfer()
	})
	return p
}

// transfer hands control to p and waits for it to block or finish.
// Driver-side only.
func (p *Proc) transfer() {
	p.resume <- struct{}{}
	<-p.sim.yield
}

// block suspends the calling process until someone wakes it. Process-side
// only.
func (p *Proc) block() {
	p.sim.yield <- struct{}{}
	<-p.resume
}

// wake schedules p to resume at absolute time t. May be called from the
// driver or from another process (both run under the single-activity
// discipline, so no locking is needed).
func (p *Proc) wakeAt(t float64) {
	p.sim.push(t, func() { p.transfer() })
}

// Delay suspends the process for d virtual seconds.
func (p *Proc) Delay(d float64) {
	if d < 0 {
		d = 0
	}
	p.wakeAt(p.sim.now + d)
	p.block()
}

// Run drives the simulation until no events remain, and reports the final
// virtual time. It fails if processes remain blocked with no pending events
// (deadlock) or if a process panicked.
func (s *Sim) Run() (float64, error) {
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(event)
		s.now = ev.at
		ev.fn()
		if s.err != nil {
			return s.now, s.err
		}
	}
	if s.nProcs > 0 {
		return s.now, fmt.Errorf("netsim: deadlock: %d processes blocked with no pending events", s.nProcs)
	}
	return s.now, nil
}
