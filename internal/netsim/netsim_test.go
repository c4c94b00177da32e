package netsim

import (
	"math"
	"testing"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestDelayAdvancesClock(t *testing.T) {
	s := NewSim()
	var at float64
	s.Spawn("p", nil, func(p *Proc) {
		p.Delay(1.5)
		at = p.Sim().Now()
		p.Delay(0.5)
	})
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(at, 1.5) || !almost(end, 2.0) {
		t.Fatalf("at=%v end=%v", at, end)
	}
}

func TestEventsFireInOrder(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(2, func() { order = append(order, 2) })
	s.At(1, func() { order = append(order, 1) })
	s.At(1, func() { order = append(order, 11) }) // same time: insertion order
	s.At(3, func() { order = append(order, 3) })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v", order)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := NewSim()
	s.Spawn("p", nil, func(p *Proc) { p.Delay(-5) })
	end, err := s.Run()
	if err != nil || end != 0 {
		t.Fatalf("end=%v err=%v", end, err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := NewSim()
	q := s.NewQueue(0)
	s.Spawn("starved", nil, func(p *Proc) { q.Get(p) })
	if _, err := s.Run(); err == nil {
		t.Fatal("deadlock not detected")
	}
}

func TestPanicPropagates(t *testing.T) {
	s := NewSim()
	s.Spawn("bad", nil, func(p *Proc) { panic("kaput") })
	if _, err := s.Run(); err == nil {
		t.Fatal("panic not reported")
	}
}

func TestComputeContention(t *testing.T) {
	// Two threads computing 1s each on a 1-CPU machine take ~2s; on a
	// 2-CPU machine, ~1s.
	for _, tc := range []struct {
		cpus int
		want float64
	}{{1, 2.0}, {2, 1.0}} {
		s := NewSim()
		m := &Machine{Name: "m", CPUs: tc.cpus}
		for i := 0; i < 2; i++ {
			s.Spawn("w", m, func(p *Proc) { p.Compute(1) })
		}
		end, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if end != tc.want {
			t.Fatalf("cpus=%d end=%v want %v", tc.cpus, end, tc.want)
		}
	}
}

func TestPackUnpackRates(t *testing.T) {
	s := NewSim()
	m := &Machine{Name: "m", CPUs: 4, PackRate: 100, UnpackRate: 50}
	s.Spawn("p", m, func(p *Proc) {
		p.Pack(200)   // 2s
		p.Unpack(100) // 2s
	})
	end, err := s.Run()
	if err != nil || !almost(end, 4) {
		t.Fatalf("end=%v err=%v", end, err)
	}
}

func TestMemCopy(t *testing.T) {
	s := NewSim()
	m := &Machine{Name: "m", CPUs: 4, MemRate: 1000, MemLatency: 0.25}
	s.Spawn("p", m, func(p *Proc) {
		p.MemCopy(500) // 0.25 + 0.5
	})
	end, err := s.Run()
	if err != nil || !almost(end, 0.75) {
		t.Fatalf("end=%v err=%v", end, err)
	}
}

func TestSyscallDelayGrowsWithThreads(t *testing.T) {
	m := &Machine{CPUs: 4, SyscallBase: 0.001, DescheduleCost: 0.002}
	m.threads = 1
	d1 := m.SyscallDelay()
	m.threads = 8
	d8 := m.SyscallDelay()
	if !almost(d1, 0.001) {
		t.Fatalf("d1 = %v", d1)
	}
	if !almost(d8, 0.001+7*0.002) {
		t.Fatalf("d8 = %v", d8)
	}
	if d8 <= d1 {
		t.Fatal("scheduler interference does not grow with threads")
	}
}

func TestLinkSerializesFIFO(t *testing.T) {
	// Two senders of 100 bytes each over a 100 B/s link: first finishes at
	// 1s, second at 2s; both deliveries offset by latency 0.1.
	s := NewSim()
	var doneA, doneB, arriveA, arriveB float64
	s.NewQueue(0) // unused; keep API covered
	l := &Link{Bandwidth: 100, Latency: 0.1}
	s.Spawn("a", nil, func(p *Proc) {
		p.Transmit(l, ClientToServer, 100, func() { arriveA = s.Now() })
		doneA = s.Now()
	})
	s.Spawn("b", nil, func(p *Proc) {
		p.Transmit(l, ClientToServer, 100, func() { arriveB = s.Now() })
		doneB = s.Now()
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Min(doneA, doneB), math.Max(doneA, doneB)
	if !almost(lo, 1) || !almost(hi, 2) {
		t.Fatalf("senders done at %v and %v", doneA, doneB)
	}
	alo, ahi := math.Min(arriveA, arriveB), math.Max(arriveA, arriveB)
	if !almost(alo, 1.1) || !almost(ahi, 2.1) {
		t.Fatalf("arrivals at %v and %v", arriveA, arriveB)
	}
}

func TestLinkDirectionsIndependent(t *testing.T) {
	s := NewSim()
	l := &Link{Bandwidth: 100}
	var d1, d2 float64
	s.Spawn("fwd", nil, func(p *Proc) {
		p.Transmit(l, ClientToServer, 100, nil)
		d1 = s.Now()
	})
	s.Spawn("rev", nil, func(p *Proc) {
		p.Transmit(l, ServerToClient, 100, nil)
		d2 = s.Now()
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(d1, 1) || !almost(d2, 1) {
		t.Fatalf("full duplex broken: %v %v", d1, d2)
	}
}

func TestChunkedSendersInterleave(t *testing.T) {
	// The §3.3 mechanism: two chunked senders share the link and finish at
	// nearly the same time, whereas a monolithic pair would finish 1s apart.
	s := NewSim()
	l := &Link{Bandwidth: 1000}
	var done [2]float64
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("sender", nil, func(p *Proc) {
			for c := 0; c < 10; c++ {
				p.Transmit(l, ClientToServer, 100, nil)
			}
			done[i] = s.Now()
		})
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	gap := math.Abs(done[0] - done[1])
	if gap > 0.11 {
		t.Fatalf("chunked senders finished %v apart", gap)
	}
}

func TestQueueBlocksAndWindows(t *testing.T) {
	s := NewSim()
	q := s.NewQueue(2)
	var produced, consumed []float64
	s.Spawn("producer", nil, func(p *Proc) {
		for i := 0; i < 4; i++ {
			q.Put(p, i)
			produced = append(produced, s.Now())
		}
	})
	s.Spawn("consumer", nil, func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Delay(1)
			v := q.Get(p)
			if v.(int) != i {
				t.Errorf("got %v want %d", v, i)
			}
			consumed = append(consumed, s.Now())
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The window of 2 forces the producer to wait for consumption: items 2
	// and 3 cannot be enqueued before times 1 and 2.
	if produced[2] < 1 || produced[3] < 2 {
		t.Fatalf("window not enforced: %v", produced)
	}
}

// TestPutAsyncWakesGetter: a Get on an empty queue blocks until an event
// callback puts an item from driver context, and returns it at that time.
func TestPutAsyncWakesGetter(t *testing.T) {
	s := NewSim()
	q := s.NewQueue(0)
	var got int
	var at float64
	s.Spawn("g", nil, func(p *Proc) {
		got = q.Get(p).(int)
		at = s.Now()
	})
	s.At(1, func() { q.PutAsync(42) })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 || at != 1 {
		t.Fatalf("got %d at time %v, want 42 at 1", got, at)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	s := NewSim()
	b := s.NewBarrier(3)
	var times []float64
	for i := 0; i < 3; i++ {
		d := float64(i)
		s.Spawn("w", nil, func(p *Proc) {
			p.Delay(d)
			b.Wait(p)
			times = append(times, s.Now())
		})
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tm := range times {
		if !almost(tm, 2) {
			t.Fatalf("barrier released at %v", times)
		}
	}
}

func TestWaitGroup(t *testing.T) {
	s := NewSim()
	wg := s.NewWaitGroup(2)
	var woke float64
	s.Spawn("waiter", nil, func(p *Proc) {
		wg.Wait(p)
		woke = s.Now()
	})
	s.At(1, func() { wg.Done() })
	s.At(3, func() { wg.Done() })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(woke, 3) {
		t.Fatalf("woke at %v", woke)
	}
	// Wait on a finished group returns immediately.
	s2 := NewSim()
	wg2 := s2.NewWaitGroup(0)
	s2.Spawn("w", nil, func(p *Proc) { wg2.Wait(p) })
	if _, err := s2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		s := NewSim()
		m1 := &Machine{Name: "c", CPUs: 2, PackRate: 1e6, SyscallBase: 1e-4, DescheduleCost: 1e-4}
		m2 := &Machine{Name: "s", CPUs: 2, UnpackRate: 1e6}
		l := &Link{Bandwidth: 1e6, Latency: 1e-3}
		q := s.NewQueue(4)
		for i := 0; i < 3; i++ {
			s.Spawn("sender", m1, func(p *Proc) {
				for c := 0; c < 5; c++ {
					p.Pack(1000)
					p.Delay(p.Machine().SyscallDelay())
					p.Transmit(l, ClientToServer, 1000, func() { q.PutAsync(1000) })
				}
			})
		}
		s.Spawn("recv", m2, func(p *Proc) {
			for c := 0; c < 15; c++ {
				q.Get(p)
				p.Unpack(1000)
			}
		})
		end, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("trivial run: %v", a)
	}
}
