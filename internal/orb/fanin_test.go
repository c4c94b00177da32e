package orb

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// Fan-in engine tests: the dispatch worker pool, shutdown-versus-admission
// races, per-connection caps on multiplexed connections, and the agreement
// between client-observed outcomes, server counters, and the metrics
// registry.

// TestShutdownRacesAdmission is the drain-race regression test: Shutdown
// runs concurrently with a flood of admissions, so requests hit every phase
// of the engine's teardown — shed at the draining gate, shed out of the
// queue, handed to a worker that is being woken by the closing stop channel
// (the lost-handoff window), or dispatched and drained. Every invocation
// must resolve as a reply, a TRANSIENT shed, or a broken/closed connection;
// none may hang or vanish.
func TestShutdownRacesAdmission(t *testing.T) {
	defer testutil.LeakCheck(t)()
	for round := 0; round < 5; round++ {
		srv, err := NewServerOpts("127.0.0.1:0", ServerOptions{
			MaxInFlight:     4,
			QueueDepth:      8,
			MaxConnInFlight: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		key := []byte("race")
		srv.Register(key, ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
			time.Sleep(100 * time.Microsecond)
			out.WriteULong(1)
			return nil
		}))

		c := NewClient()
		c.Timeout = 10 * time.Second

		const invokers = 16
		var resolved, unexpected atomic.Int64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for i := 0; i < invokers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, err := c.InvokeAddr(nil, srv.Addr(), key, "work", NewArgEncoder().Bytes(), false)
					resolved.Add(1)
					switch {
					case err == nil, IsTransient(err):
					case errors.Is(err, ErrConnBroken), errors.Is(err, ErrClientClosed):
					default:
						var se *SystemException
						if errors.As(err, &se) && se.RepoID == RepoComm {
							continue // dial/write raced the teardown
						}
						unexpected.Add(1)
						t.Errorf("round %d: unexpected invocation outcome: %v", round, err)
					}
				}
			}()
		}

		// Let the flood build, then yank the server out from under it.
		for resolved.Load() < 50 {
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("round %d: shutdown: %v", round, err)
		}
		cancel()
		close(stop)
		wg.Wait()
		c.Close()

		st := srv.Stats()
		if st.InFlight != 0 || st.Queued != 0 {
			t.Fatalf("round %d: gauges not drained after shutdown: %d in flight, %d queued",
				round, st.InFlight, st.Queued)
		}
		if st.Workers != 0 {
			t.Fatalf("round %d: %d workers survived a clean shutdown", round, st.Workers)
		}
	}
}

// TestQueueExhaustionWithConcurrentDrains fills the admission queue, then
// drains and refills it concurrently: releases of in-flight dispatches (each
// one pulls a queued item into its worker) race new admissions into the
// freed slots. The books must balance exactly — every request either
// dispatched or shed, gauges at zero after the dust settles. Every drain is
// held until the server is full — MaxInFlight dispatches parked, QueueDepth
// queued — and until it has shed a request, and waits for the dispatch it
// released to complete, so both outcomes occur whatever the scheduler does.
func TestQueueExhaustionWithConcurrentDrains(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const maxInFlight, queueDepth = 2, 2
	key := []byte("churn")
	srv, err := NewServerOpts("127.0.0.1:0", ServerOptions{
		MaxInFlight:     maxInFlight,
		QueueDepth:      queueDepth,
		MaxConnInFlight: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const total = 48
	gate := make(chan struct{}, total)
	srv.Register(key, ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
		<-gate // each token drains one dispatch
		out.WriteULong(1)
		return nil
	}))

	c := NewClient()
	c.Timeout = 10 * time.Second
	defer c.Close()

	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.InvokeAddr(nil, srv.Addr(), key, "work", NewArgEncoder().Bytes(), false)
			switch {
			case err == nil:
				ok.Add(1)
			case IsTransient(err):
				shed.Add(1)
			default:
				t.Errorf("invoke: %v", err)
			}
		}()
	}
	// Drain while the requests still arrive; once none can arrive any more,
	// release everything still parked.
	for released := 0; released < total; {
		st := srv.Stats()
		occupied := int64(st.InFlight + st.Queued)
		switch {
		case ok.Load() < int64(released): // the last drain's reply is on its way
		case occupied == maxInFlight+queueDepth && st.Shed > 0:
			gate <- struct{}{}
			released++
			continue
		case ok.Load()+shed.Load()+occupied >= total:
			for ; released < total; released++ {
				gate <- struct{}{}
			}
			continue
		}
		time.Sleep(50 * time.Microsecond)
	}
	wg.Wait()

	if ok.Load() == 0 || shed.Load() == 0 {
		t.Errorf("want both completions and sheds under queue churn, got %d ok / %d shed", ok.Load(), shed.Load())
	}
	if got := ok.Load() + shed.Load(); got != total {
		t.Errorf("accounting: %d resolved, %d issued", got, total)
	}
	st := srv.Stats()
	if uint64(ok.Load()) != st.Dispatched {
		t.Errorf("server dispatched %d, clients completed %d", st.Dispatched, ok.Load())
	}
	if uint64(shed.Load()) != st.Shed {
		t.Errorf("server shed %d, clients saw %d TRANSIENTs", st.Shed, shed.Load())
	}
	testutil.Eventually(t, 5*time.Second, "gauges never drained", func() bool {
		st := srv.Stats()
		return st.InFlight == 0 && st.Queued == 0
	})
}

// TestMaxConnInFlightOnSharedConn pins the per-connection cap on a single
// multiplexed connection: many logical clients sharing one orb.Client share
// one socket, and their aggregate in-flight count is what the cap governs.
func TestMaxConnInFlightOnSharedConn(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const connCap = 4
	key := []byte("cap")
	srv, addr, release := blockingServer(t, ServerOptions{
		MaxInFlight:     -1, // isolate the per-conn cap
		QueueDepth:      -1,
		MaxConnInFlight: connCap,
	}, key)
	// Teardown order matters under the leak check: unblock the servant, then
	// close the server, and only then measure goroutines (defers run LIFO).
	defer srv.Close()
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()

	c := NewClient() // one client: all invocations multiplex over one conn
	c.Timeout = 10 * time.Second
	defer c.Close()

	const total = connCap + 6
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		go func() {
			_, err := c.InvokeAddr(nil, addr, key, "work", NewArgEncoder().Bytes(), false)
			errs <- err
		}()
	}

	// The overflow must shed against the connection cap while the capped
	// dispatches are still parked.
	var sheds int
	for i := 0; i < total-connCap; i++ {
		select {
		case err := <-errs:
			if !IsTransient(err) {
				t.Fatalf("overflow outcome: %v, want TRANSIENT", err)
			}
			if !strings.Contains(err.Error(), "connection request cap") {
				t.Fatalf("shed reason %q does not name the connection cap", err)
			}
			sheds++
		case <-time.After(10 * time.Second):
			t.Fatalf("overflow did not shed (got %d sheds)", sheds)
		}
	}
	if c.NumConns() != 1 {
		t.Fatalf("test premise broken: %d conns, want exactly 1 multiplexed", c.NumConns())
	}
	releaseOnce()
	for i := 0; i < connCap; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("capped dispatch failed after release: %v", err)
		}
	}
}

// TestShedAccountingAcrossLayers drives a saturated server and asserts the
// three books agree: client-observed TRANSIENTs, the server's own Stats, and
// the pull-based registry counters.
func TestShedAccountingAcrossLayers(t *testing.T) {
	defer testutil.LeakCheck(t)()
	reg := obs.NewRegistry()
	key := []byte("books")
	srv, addr, release := blockingServer(t, ServerOptions{
		MaxInFlight:     1,
		QueueDepth:      -1, // no queue: overflow sheds immediately
		MaxConnInFlight: -1,
		Metrics:         reg,
	}, key)
	defer srv.Close()
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()

	c := NewClient()
	c.Timeout = 10 * time.Second
	defer c.Close()

	var ok, shed atomic.Uint64
	var wg sync.WaitGroup
	const total = 12
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.InvokeAddr(nil, addr, key, "work", NewArgEncoder().Bytes(), false)
			switch {
			case err == nil:
				ok.Add(1)
			case IsTransient(err):
				shed.Add(1)
			default:
				t.Errorf("invoke: %v", err)
			}
		}()
	}
	// Let the single slot churn a little: shed pressure builds, then drain.
	testutil.Eventually(t, 5*time.Second, "no shedding materialized", func() bool {
		return srv.Stats().Shed > 0
	})
	releaseOnce()
	wg.Wait()

	st := srv.Stats()
	if shed.Load() != st.Shed {
		t.Errorf("client TRANSIENTs %d != server shed %d", shed.Load(), st.Shed)
	}
	if ok.Load() != st.Dispatched {
		t.Errorf("client completions %d != server dispatched %d", ok.Load(), st.Dispatched)
	}
	snap := reg.Snapshot()
	if got := snap.Pulled["orb.server.shed"]; got != int64(st.Shed) {
		t.Errorf("registry shed %d != server shed %d", got, st.Shed)
	}
	if got := snap.Pulled["orb.server.dispatched"]; got != int64(st.Dispatched) {
		t.Errorf("registry dispatched %d != server dispatched %d", got, st.Dispatched)
	}
	// The histogram observation lands just after the reply write, so it can
	// trail the client's view by a beat.
	testutil.Eventually(t, 5*time.Second, "dispatch histogram never matched the dispatch counter", func() bool {
		return reg.Snapshot().Histograms["orb.server.dispatch_ns"].Count == st.Dispatched
	})
}

// TestWorkerPoolShrinksAfterBurst pins the reaper: a burst of concurrent
// dispatches grows the pool, and once the burst passes, idle workers are
// reaped back down instead of pinning the peak goroutine count forever.
func TestWorkerPoolShrinksAfterBurst(t *testing.T) {
	defer testutil.LeakCheck(t)()
	key := []byte("burst")
	srv, err := NewServerOpts("127.0.0.1:0", ServerOptions{
		MaxInFlight:       64,
		MaxConnInFlight:   -1,
		WorkerIdleTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(key, ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
		time.Sleep(5 * time.Millisecond)
		out.WriteULong(1)
		return nil
	}))

	c := NewClient()
	c.Timeout = 10 * time.Second
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.InvokeAddr(nil, srv.Addr(), key, "work", NewArgEncoder().Bytes(), false); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	if w := srv.Stats().Workers; w < 2 {
		t.Fatalf("burst of 32 concurrent dispatches grew only %d workers", w)
	}
	testutil.Eventually(t, 5*time.Second, "idle workers never reaped", func() bool {
		return srv.Stats().Workers == 0
	})
}
