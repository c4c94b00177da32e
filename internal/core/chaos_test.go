package core

// Chaos tests: drive SPMD invocations through a faulted transport and
// assert the failure contract — every rank returns the same error within
// the deadline, no rank hangs in a collective, futures always resolve, and
// no goroutine leaks.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/dseq"
	"repro/internal/rts"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// chaosTimeout bounds one faulted invocation as seen by the client; well
// under testTimeout so a clean failure is distinguishable from a hung
// collective resolved only by the rts receive timeout.
const chaosTimeout = 3 * time.Second

// faultRig abstracts the two injection styles used below: schedule-driven
// FaultPlan wrapping and the deterministic magic-byte corruptor.
type faultRig interface {
	Options() *transport.Options
	Arm()
}

// armedWrap applies a FaultPlan to dialed streams, but only once armed:
// binding and interface discovery run clean, and the schedule starts
// counting at the moment of arming, which pins the faults to the
// invocation under test.
type armedWrap struct {
	plan  *transport.FaultPlan
	armed atomic.Bool
}

func (a *armedWrap) Options() *transport.Options {
	return &transport.Options{Wrap: func(rw io.ReadWriteCloser) io.ReadWriteCloser {
		return &armedStream{owner: a, inner: rw}
	}}
}

func (a *armedWrap) Arm() { a.armed.Store(true) }

type armedStream struct {
	owner *armedWrap
	mu    sync.Mutex
	inner io.ReadWriteCloser
	inj   io.ReadWriteCloser
}

func (s *armedStream) target() io.ReadWriteCloser {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.owner.armed.Load() {
		if s.inj == nil {
			s.inj = s.owner.plan.Wrap(s.inner)
		}
		return s.inj
	}
	return s.inner
}

func (s *armedStream) Read(p []byte) (int, error)  { return s.target().Read(p) }
func (s *armedStream) Write(p []byte) (int, error) { return s.target().Write(p) }
func (s *armedStream) Close() error                { return s.inner.Close() }

// magicCorruptor flips a bit in the frame magic of the first write after
// arming. A flip in payload bytes would be silent (PGIOP carries no
// checksums), so targeting the magic makes the peer's rejection
// deterministic: the server kills the connection on the bad header.
type magicCorruptor struct {
	armed atomic.Bool
	hit   atomic.Bool
}

func (m *magicCorruptor) Options() *transport.Options {
	return &transport.Options{Wrap: func(rw io.ReadWriteCloser) io.ReadWriteCloser {
		return &magicStream{owner: m, inner: rw}
	}}
}

func (m *magicCorruptor) Arm() { m.armed.Store(true) }

type magicStream struct {
	owner *magicCorruptor
	inner io.ReadWriteCloser
}

func (s *magicStream) Read(p []byte) (int, error) { return s.inner.Read(p) }

func (s *magicStream) Write(p []byte) (int, error) {
	if len(p) > 0 && s.owner.armed.Load() && s.owner.hit.CompareAndSwap(false, true) {
		c := append([]byte(nil), p...)
		c[0] ^= 0x40
		return s.inner.Write(c)
	}
	return s.inner.Write(p)
}

func (s *magicStream) Close() error { return s.inner.Close() }

// runClientOpts is runClient with explicit bind options (chaos tests pass
// fault-injecting transports and short timeouts).
func (tc *testCluster) runClientOpts(t *testing.T, cRanks int, opts BindOptions, fn func(c *rts.Comm, b *Binding) error) {
	t.Helper()
	if err := tc.clientRun(cRanks, opts, fn); err != nil {
		t.Fatal(err)
	}
}

// clientRun is runClientOpts returning the client world's error, for a client
// that runs beside the test's goroutine.
func (tc *testCluster) clientRun(cRanks int, opts BindOptions, fn func(c *rts.Comm, b *Binding) error) error {
	w := rts.NewWorld(cRanks, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	return w.Run(func(c *rts.Comm) error {
		b, err := SPMDBind(c, "example", tc.ns.Addr(), opts)
		if err != nil {
			return err
		}
		defer b.Close()
		return fn(c, b)
	})
}

// assertCoherentFailure gathers every rank's error at rank 0 and checks
// they all failed with the very same error, at the same place in the collective
// skeleton (aligned).
func assertCoherentFailure(c *rts.Comm, b *Binding, err error) error {
	msg := ""
	if err != nil {
		msg = aligned(b, err).Error()
	}
	all, gerr := c.Gather(0, []byte(msg))
	if gerr != nil {
		return gerr
	}
	if c.Rank() != 0 {
		return nil
	}
	for r, p := range all {
		if len(p) == 0 {
			return fmt.Errorf("rank %d saw no error from the faulted invocation", r)
		}
		if !bytes.Equal(p, all[0]) {
			return fmt.Errorf("incoherent errors: rank 0 %q, rank %d %q", all[0], r, p)
		}
	}
	return nil
}

func TestChaosInvocationFailsCoherently(t *testing.T) {
	// The third mode cuts thread 1's data connection at a frame boundary: two of
	// the four chunks of its one move arrive whole and the rest never do.
	const betweenChunks = 64
	for _, method := range []Method{Centralized, Multiport} {
		for _, mode := range []string{"cut-mid-frame", "corrupt-header", "cut-between-chunks"} {
			method, mode := method, mode
			if mode == "cut-between-chunks" && method != Multiport {
				continue // thread 0's connection carries the request too: no boundary to aim at
			}
			testutil.CheckGoroutines(t, fmt.Sprintf("%v/%s", method, mode), func(t *testing.T) {
				var rig faultRig
				chunk := 0
				switch mode {
				case "cut-mid-frame":
					plan := transport.NewFaultPlan(7)
					// Well below one rank's data chunk, so the frame that
					// crosses it is truncated mid-body before the hard close.
					plan.CutAfterWriteBytes = 700
					rig = &armedWrap{plan: plan}
				case "cut-between-chunks":
					plan := transport.NewFaultPlan(7)
					frame := wire.Encode(&wire.Data{Flags: wire.DataFlagChunk, Payload: dseq.MarshalChunk(dseq.Float64, make([]float64, betweenChunks))}, cdr.NativeOrder)
					plan.CutAfterWriteBytes = int64(2 * len(frame))
					rig, chunk = &armedWrap{plan: plan}, betweenChunks
				default:
					rig = &magicCorruptor{}
				}
				tc := startCluster(t, 2, true, nil)
				opts := BindOptions{Method: method, Timeout: chaosTimeout, streamChunkElems: chunk, Transport: rig.Options()}
				tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
					const n = 512
					arr, err := dseq.New(c, dseq.Float64, n, nil)
					if err != nil {
						return err
					}
					arr.FillFunc(func(g int) float64 { return float64(g) })

					// A clean invocation first proves the plumbing.
					if _, err := b.Invoke("scale", scaleScalars(2), []DistArg{InOutSeq(arr)}); err != nil {
						return fmt.Errorf("pre-fault invoke: %w", err)
					}

					rig.Arm()
					start := time.Now()
					_, err = b.Invoke("scale", scaleScalars(3), []DistArg{InOutSeq(arr)})
					elapsed := time.Since(start)
					if err == nil {
						return errors.New("invocation over faulted transport succeeded")
					}
					// Clean failure, not an rts-receive-timeout rescue.
					if elapsed > testTimeout-5*time.Second {
						return fmt.Errorf("failure took %v, wanted well under the rts timeout", elapsed)
					}
					return assertCoherentFailure(c, b, err)
				})
			})
		}
	}
}

// TestChaosServerDiesMidReplyStream cuts the server's side of the request's
// connection in the middle of the reply stream of an out-only call: the
// request leg was inline, so thread 0 is still inside the exchange, with the
// chunks that made it across on loan in its lane's sink and the Reply never to
// come. Every client thread ends with the same error, promptly; the frames go
// back to the pool; the server's sender and the serving loop survive their
// failed writes — the next call, on a fresh connection, streams the whole
// result — and nothing outlives the teardown.
func TestChaosServerDiesMidReplyStream(t *testing.T) {
	testutil.CheckGoroutines(t, "body", func(t *testing.T) {
		defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
		const chunk, n = 128, 16 * 128
		plan := transport.NewFaultPlan(11)
		// Three chunk frames of a little over 1 KiB fit; the fourth is cut
		// mid-body. Only the first connection used after arming is faulted.
		plan.CutAfterWriteBytes, plan.FaultConns = 3500, 1
		rig := &armedWrap{plan: plan}
		tc := startCluster(t, 2, false, nil, func(o *ExportOptions) { o.Server.Transport = rig.Options() })
		opts := BindOptions{Timeout: chaosTimeout, streamChunkElems: chunk}
		tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
			out, err := dseq.New(c, dseq.Float64, 0, nil)
			if err != nil {
				return err
			}
			size := ScalarEncoder()
			size.WriteLong(n)
			iota := func() error {
				if _, err := b.Invoke("iota", size.Bytes(), []DistArg{OutSeq(out)}); err != nil {
					return err
				}
				if got := out.LocalData()[0]; out.Len() != n || got != float64(c.Rank()*n/2)+0.5 {
					return fmt.Errorf("thread %d: result of %d elements starting at %v", c.Rank(), out.Len(), got)
				}
				return nil
			}
			if err := iota(); err != nil {
				return fmt.Errorf("pre-fault invoke: %w", err)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			rig.Arm()
			start := time.Now()
			err = iota()
			if err == nil {
				return errors.New("the result arrived whole over a cut reply stream")
			}
			if elapsed := time.Since(start); elapsed > chaosTimeout {
				return fmt.Errorf("failure took %v: a thread waited out its timeout", elapsed)
			}
			if err := assertCoherentFailure(c, b, err); err != nil {
				return err
			}
			if err := iota(); err != nil {
				return fmt.Errorf("post-fault invoke: %w", err)
			}
			return nil
		})
	})
}

func TestFutureWaitTwice(t *testing.T) {
	tc := startCluster(t, 2, true, nil)
	tc.runClient(t, 2, Centralized, func(c *rts.Comm, b *Binding) error {
		arr, err := dseq.New(c, dseq.Float64, 100, nil)
		if err != nil {
			return err
		}
		arr.FillFunc(func(int) float64 { return 1 })
		f := b.InvokeNB("sum", ScalarEncoder().Bytes(), []DistArg{InSeq(arr)})
		s1, e1 := f.Wait()
		s2, e2 := f.Wait() // second Wait must return the same result, not hang
		if e1 != nil || e2 != nil {
			return fmt.Errorf("waits: %v, %v", e1, e2)
		}
		if !bytes.Equal(s1, s2) {
			return errors.New("second Wait returned different scalars")
		}
		if s3, e3, ok := f.WaitTimeout(time.Second); !ok || e3 != nil || !bytes.Equal(s1, s3) {
			return fmt.Errorf("WaitTimeout after Wait: ok=%v err=%v", ok, e3)
		}
		return nil
	})
}

func TestFutureWaitAfterConnDied(t *testing.T) {
	testutil.CheckGoroutines(t, "body", func(t *testing.T) {
		plan := transport.NewFaultPlan(5)
		plan.CutAfterWriteBytes = 1 // first armed write kills the stream
		rig := &armedWrap{plan: plan}
		tc := startCluster(t, 2, true, nil)
		opts := BindOptions{Method: Multiport, Timeout: chaosTimeout, Transport: rig.Options()}
		tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
			arr, err := dseq.New(c, dseq.Float64, 64, nil)
			if err != nil {
				return err
			}
			rig.Arm()
			f := b.InvokeNB("scale", scaleScalars(2), []DistArg{InOutSeq(arr)})
			_, e1, ok := f.WaitTimeout(testTimeout)
			if !ok {
				return errors.New("future unresolved after connection death")
			}
			if e1 == nil {
				return errors.New("invocation over dead connection succeeded")
			}
			if _, e2 := f.Wait(); e2 == nil || e2.Error() != e1.Error() {
				return fmt.Errorf("second Wait: %v, first %v", e2, e1)
			}
			return assertCoherentFailure(c, b, e1)
		})
	})
}

func TestFutureOutstandingAtWorldShutdown(t *testing.T) {
	testutil.CheckGoroutines(t, "body", func(t *testing.T) {
		tc := startCluster(t, 2, true, nil)
		plan := transport.NewFaultPlan(3)
		plan.CutAfterWriteBytes = 1
		rig := &armedWrap{plan: plan}
		const cRanks = 2
		w := rts.NewWorld(cRanks, rts.Options{RecvTimeout: testTimeout})
		futs := make([]*Future, cRanks)
		binds := make([]*Binding, cRanks)
		err := w.Run(func(c *rts.Comm) error {
			b, err := SPMDBind(c, "example", tc.ns.Addr(),
				BindOptions{Method: Centralized, Timeout: chaosTimeout, Transport: rig.Options()})
			if err != nil {
				return err
			}
			binds[c.Rank()] = b
			arr, err := dseq.New(c, dseq.Float64, 64, nil)
			if err != nil {
				return err
			}
			rig.Arm()
			futs[c.Rank()] = b.InvokeNB("scale", scaleScalars(2), []DistArg{InOutSeq(arr)})
			return nil // leave the future outstanding
		})
		if err != nil {
			t.Fatal(err)
		}
		// The world dies under the in-flight invocation; the futures must
		// still resolve (with errors), not hang.
		w.Close()
		for r, f := range futs {
			if _, ferr, ok := f.WaitTimeout(testTimeout); !ok {
				t.Fatalf("rank %d future unresolved after world shutdown", r)
			} else if ferr == nil {
				t.Errorf("rank %d future succeeded against a cut transport", r)
			}
		}
		for _, b := range binds {
			if b != nil {
				b.Close()
			}
		}
	})
}

// blackholeRig simulates a SIGKILL'd peer from the moment it is armed: every
// wrapped stream swallows writes (they "succeed" into a dead peer's kernel
// buffer) and delivers silence on reads (inbound bytes are discarded), with
// no error ever surfacing from the stream itself. The only way out is
// liveness detection.
type blackholeRig struct{ armed atomic.Bool }

func (r *blackholeRig) Options() *transport.Options {
	return &transport.Options{Wrap: func(rw io.ReadWriteCloser) io.ReadWriteCloser {
		return &blackholeStream{owner: r, inner: rw, done: make(chan struct{})}
	}}
}

func (r *blackholeRig) Arm() { r.armed.Store(true) }

type blackholeStream struct {
	owner *blackholeRig
	inner io.ReadWriteCloser
	done  chan struct{}
	once  sync.Once
}

func (s *blackholeStream) Read(p []byte) (int, error) {
	for {
		n, err := s.inner.Read(p)
		if !s.owner.armed.Load() {
			return n, err
		}
		if err != nil {
			// The real stream ended; stay silent (like a dead peer) until
			// the wrapper itself is closed locally.
			<-s.done
			return 0, err
		}
		_ = n // swallow delivered bytes: a killed peer sent nothing
	}
}

func (s *blackholeStream) Write(p []byte) (int, error) {
	if s.owner.armed.Load() {
		return len(p), nil
	}
	return s.inner.Write(p)
}

func (s *blackholeStream) Close() error {
	s.once.Do(func() { close(s.done) })
	return s.inner.Close()
}

// TestKeepaliveSurfacesKilledServerCoherently is the SIGKILL acceptance
// case: mid-run, the whole server side goes silent without so much as a FIN
// (blackholed streams). The client-side keepalive must declare the peers
// dead within roughly twice the keepalive interval and every client rank
// must surface the same error through the collective agreement — no
// DataTimeout stall, no incoherent split.
func TestKeepaliveSurfacesKilledServerCoherently(t *testing.T) {
	testutil.CheckGoroutines(t, "body", func(t *testing.T) {
		rig := &blackholeRig{}
		tc := startCluster(t, 2, true, nil)
		const interval = 100 * time.Millisecond
		topts := rig.Options()
		topts.KeepaliveInterval = interval
		opts := BindOptions{
			Method:    Multiport,
			Timeout:   testTimeout, // detection must not come from here
			Transport: topts,
		}
		tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
			const n = 512
			arr, err := dseq.New(c, dseq.Float64, n, nil)
			if err != nil {
				return err
			}
			arr.FillFunc(func(g int) float64 { return float64(g) })
			if _, err := b.Invoke("scale", scaleScalars(2), []DistArg{InOutSeq(arr)}); err != nil {
				return fmt.Errorf("pre-fault invoke: %w", err)
			}

			rig.Arm()
			start := time.Now()
			_, err = b.Invoke("scale", scaleScalars(3), []DistArg{InOutSeq(arr)})
			elapsed := time.Since(start)
			if err == nil {
				return errors.New("invocation against a killed server succeeded")
			}
			// The property under test is that detection came from the
			// keepalive (nominally ~2x the interval), not from the binding's
			// 20s invocation timeout or the 30s DataTimeout. The bound leaves
			// generous scheduler headroom so loaded -race runs don't flake on
			// wall-clock jitter.
			if elapsed > testTimeout/2 {
				return fmt.Errorf("dead server surfaced after %v, want keepalive-scale detection (interval %v), not a timeout rescue",
					elapsed, interval)
			}
			return assertCoherentFailure(c, b, err)
		})
	})
}

// TestObjectShutdownRacesInFlightInvocations drains the served object while
// a client hammers it with collective invocations: completed calls must stay
// completed, the drain must not wedge either side, every rank must agree on
// the eventual failure, and nothing may leak.
func TestObjectShutdownRacesInFlightInvocations(t *testing.T) {
	testutil.CheckGoroutines(t, "body", func(t *testing.T) {
		tc := startCluster(t, 2, true, nil)
		tc.runClient(t, 2, Multiport, func(c *rts.Comm, b *Binding) error {
			const n = 256
			arr, err := dseq.New(c, dseq.Float64, n, nil)
			if err != nil {
				return err
			}
			arr.FillFunc(func(g int) float64 { return float64(g) })
			if _, err := b.Invoke("scale", scaleScalars(2), []DistArg{InOutSeq(arr)}); err != nil {
				return fmt.Errorf("pre-drain invoke: %w", err)
			}

			// Rank 0 triggers the drain concurrently with the invocation
			// stream below; the communicating thread's object drains first so
			// its in-flight dispatch can finish collectively. The trigger is
			// event-driven — it fires once the stream has completed a call —
			// rather than a wall-clock sleep racing the loop.
			drainReady := make(chan struct{})
			if c.Rank() == 0 {
				go func() {
					<-drainReady
					tc.objMu.Lock()
					objs := append([]*Object(nil), tc.objects...)
					tc.objMu.Unlock()
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					for _, o := range objs {
						if o != nil {
							o.Shutdown(ctx)
						}
					}
				}()
			}

			var ierr error
			start := time.Now()
			for i := 0; i < 10000; i++ {
				if _, ierr = b.Invoke("scale", scaleScalars(1), []DistArg{InOutSeq(arr)}); ierr != nil {
					break
				}
				if c.Rank() == 0 && i == 0 {
					close(drainReady)
				}
				if time.Since(start) > testTimeout-5*time.Second {
					return errors.New("invocations kept succeeding long after the drain began")
				}
			}
			if ierr == nil {
				return errors.New("invocations never observed the drain")
			}
			return assertCoherentFailure(c, b, ierr)
		})
	})
}

// TestChaosServerSurvivesFaultedClient exercises the server half of the
// degradation story: after a client's multiport invocation dies mid-frame,
// the same cluster must keep serving fresh, healthy clients.
func TestChaosServerSurvivesFaultedClient(t *testing.T) {
	// A short data timeout so the server sheds the faulted invocation
	// quickly instead of holding the collective loop for the 30s default.
	tc := startCluster(t, 2, true, nil, func(o *ExportOptions) { o.DataTimeout = 2 * time.Second })

	plan := transport.NewFaultPlan(9)
	plan.CutAfterWriteBytes = 700
	rig := &armedWrap{plan: plan}
	opts := BindOptions{Method: Multiport, Timeout: chaosTimeout, Transport: rig.Options()}
	tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
		arr, err := dseq.New(c, dseq.Float64, 512, nil)
		if err != nil {
			return err
		}
		rig.Arm()
		if _, err := b.Invoke("scale", scaleScalars(2), []DistArg{InOutSeq(arr)}); err == nil {
			return errors.New("faulted invocation succeeded")
		}
		return nil
	})

	// A fresh client over a clean transport must succeed on the same object.
	tc.runClient(t, 2, Multiport, func(c *rts.Comm, b *Binding) error {
		arr, err := dseq.New(c, dseq.Float64, 256, nil)
		if err != nil {
			return err
		}
		arr.FillFunc(func(int) float64 { return 1 })
		reply, err := b.Invoke("scale", scaleScalars(4), []DistArg{InOutSeq(arr)})
		if err != nil {
			return fmt.Errorf("post-chaos invoke: %w", err)
		}
		d, err := ScalarDecoder(reply)
		if err != nil {
			return err
		}
		if n, err := d.ReadLong(); err != nil || n != 256 {
			return fmt.Errorf("post-chaos reply: %d, %v", n, err)
		}
		return nil
	})
}
