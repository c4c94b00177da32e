package netsim

import "fmt"

// Machine models one multiprocessor host: a fixed number of CPUs shared by
// its threads, characteristic memory and marshalling bandwidths, and the
// scheduler-interference behaviour the paper observed on IRIX.
type Machine struct {
	Name string
	// CPUs is the number of processors.
	CPUs int
	// PackRate is per-thread marshalling throughput, bytes/second.
	PackRate float64
	// UnpackRate is per-thread unmarshalling throughput, bytes/second.
	UnpackRate float64
	// MemRate is the intra-machine copy bandwidth used by the run-time
	// system's gather/scatter (the paper ran MPICH over shared memory).
	MemRate float64
	// MemLatency is the per-message latency of an intra-machine RTS
	// message.
	MemLatency float64
	// SyscallBase is the fixed cost of entering the kernel for a network
	// operation.
	SyscallBase float64
	// DescheduleCost models the paper's scheduler interference: a thread
	// issuing a system call is descheduled, and the expected delay before
	// it runs again grows with the number of threads competing for the
	// machine ("increasing the number of computing threads decreases the
	// probability that a particular thread will be scheduled at any
	// time"). The penalty charged per network operation is
	// DescheduleCost * max(0, threads-CPUs... see SyscallDelay.
	DescheduleCost float64

	threads   int // spawned processes
	computing int // processes currently inside Compute
}

// SyscallDelay returns the scheduler cost of one network operation for the
// current machine population: the base kernel entry plus a descheduling
// penalty that grows linearly with the number of threads beyond the first.
func (m *Machine) SyscallDelay() float64 {
	extra := float64(m.threads - 1)
	if extra < 0 {
		extra = 0
	}
	return m.SyscallBase + m.DescheduleCost*extra
}

// Compute occupies the CPU for cpuSeconds of work, stretched by the
// processor-sharing factor when more threads compute than CPUs exist
// (the paper oversubscribes the 4-CPU Onyx with up to 8 client threads).
func (p *Proc) Compute(cpuSeconds float64) {
	if cpuSeconds <= 0 {
		return
	}
	m := p.machine
	if m == nil {
		p.Delay(cpuSeconds)
		return
	}
	m.computing++
	factor := 1.0
	if m.CPUs > 0 && m.computing > m.CPUs {
		factor = float64(m.computing) / float64(m.CPUs)
	}
	p.Delay(cpuSeconds * factor)
	m.computing--
}

// Pack charges the marshalling cost of n bytes.
func (p *Proc) Pack(bytes int) {
	if p.machine != nil && p.machine.PackRate > 0 {
		p.Compute(float64(bytes) / p.machine.PackRate)
	}
}

// Unpack charges the unmarshalling cost of n bytes.
func (p *Proc) Unpack(bytes int) {
	if p.machine != nil && p.machine.UnpackRate > 0 {
		p.Compute(float64(bytes) / p.machine.UnpackRate)
	}
}

// MemCopy charges an intra-machine RTS message of n bytes (one leg of a
// gather or scatter).
func (p *Proc) MemCopy(bytes int) {
	if p.machine == nil {
		return
	}
	d := p.machine.MemLatency
	if p.machine.MemRate > 0 {
		d += float64(bytes) / p.machine.MemRate
	}
	p.Delay(d)
}

// Link is a full-duplex shared network link. Each direction serializes
// transmissions FIFO at Bandwidth; chunked senders therefore interleave
// fairly, which is the mechanism behind the paper's multi-port observations.
type Link struct {
	Name      string
	Bandwidth float64 // bytes/second per direction
	Latency   float64 // propagation delay, seconds
	// PerMessage is the fixed protocol cost charged per transmission.
	PerMessage float64

	busyUntil [2]float64 // per direction
	// Busy accounting for utilization reports.
	bytesSent [2]float64
}

// Direction selects a link direction.
type Direction int

const (
	ClientToServer Direction = iota
	ServerToClient
)

// Transmit sends n bytes in the given direction: the caller waits for the
// link to serialize its transmission (FIFO after whatever is already
// queued) and regains control when the last byte has been put on the wire;
// arrival at the far end happens Latency later, when the simulator runs
// deliver (which may be nil).
func (p *Proc) Transmit(l *Link, dir Direction, n int, deliver func()) {
	s := p.sim
	start := s.now
	if l.busyUntil[dir] > start {
		start = l.busyUntil[dir]
	}
	txTime := l.PerMessage
	if l.Bandwidth > 0 {
		txTime += float64(n) / l.Bandwidth
	}
	end := start + txTime
	l.busyUntil[dir] = end
	l.bytesSent[dir] += float64(n)
	if deliver != nil {
		s.At(end+l.Latency, deliver)
	}
	p.wakeAt(end)
	p.block()
}

// BytesSent reports the bytes carried in one direction so far.
func (l *Link) BytesSent(dir Direction) float64 { return l.bytesSent[dir] }

// Queue is a bounded FIFO between simulated processes: Put blocks while the
// queue is full, Get while it is empty. With capacity W it models the
// bounded send window that makes large sends effectively synchronous.
type Queue struct {
	sim   *Sim
	cap   int
	items []any
	// Waiters, in arrival order.
	getters []*Proc
	putters []*Proc
}

// NewQueue creates a queue with the given capacity (0 means unbounded).
func (s *Sim) NewQueue(capacity int) *Queue {
	return &Queue{sim: s, cap: capacity}
}

// Put appends v, blocking while the queue is at capacity.
func (q *Queue) Put(p *Proc, v any) {
	for q.cap > 0 && len(q.items) >= q.cap {
		q.putters = append(q.putters, p)
		p.block()
	}
	q.items = append(q.items, v)
	if len(q.getters) > 0 {
		g := q.getters[0]
		q.getters = q.getters[1:]
		g.wakeAt(q.sim.now)
	}
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue) Get(p *Proc) any {
	for len(q.items) == 0 {
		q.getters = append(q.getters, p)
		p.block()
	}
	v := q.items[0]
	q.items = q.items[1:]
	if len(q.putters) > 0 {
		w := q.putters[0]
		q.putters = q.putters[1:]
		w.wakeAt(q.sim.now)
	}
	return v
}

// TryGet removes the head item if one is present.
func (q *Queue) TryGet() (any, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	if len(q.putters) > 0 {
		w := q.putters[0]
		q.putters = q.putters[1:]
		w.wakeAt(q.sim.now)
	}
	return v, true
}

// PutAsync appends v from driver context (an event callback, not a
// process); it must only be used on unbounded queues.
func (q *Queue) PutAsync(v any) {
	if q.cap > 0 && len(q.items) >= q.cap {
		panic(fmt.Sprintf("netsim: PutAsync on full bounded queue (cap %d)", q.cap))
	}
	q.items = append(q.items, v)
	if len(q.getters) > 0 {
		g := q.getters[0]
		q.getters = q.getters[1:]
		g.wakeAt(q.sim.now)
	}
}

// Barrier synchronizes n processes: the n-th arrival releases everyone.
type Barrier struct {
	sim     *Sim
	n       int
	waiting []*Proc
}

// NewBarrier creates a barrier for n processes.
func (s *Sim) NewBarrier(n int) *Barrier { return &Barrier{sim: s, n: n} }

// Wait blocks until n processes have arrived.
func (b *Barrier) Wait(p *Proc) {
	if len(b.waiting)+1 == b.n {
		for _, w := range b.waiting {
			w.wakeAt(b.sim.now)
		}
		b.waiting = b.waiting[:0]
		return
	}
	b.waiting = append(b.waiting, p)
	p.block()
}

// WaitGroup lets a process wait for a set of processes to finish a phase.
type WaitGroup struct {
	sim     *Sim
	count   int
	waiters []*Proc
}

// NewWaitGroup creates a wait group with an initial count.
func (s *Sim) NewWaitGroup(n int) *WaitGroup { return &WaitGroup{sim: s, count: n} }

// Done decrements the count, releasing waiters at zero. Driver- or
// process-context safe.
func (w *WaitGroup) Done() {
	w.count--
	if w.count == 0 {
		for _, p := range w.waiters {
			p.wakeAt(w.sim.now)
		}
		w.waiters = nil
	}
}

// Wait blocks until the count reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count <= 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.block()
}
