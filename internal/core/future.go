package core

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Future represents the result of a non-blocking invocation, in the style
// of the ABC++ futures the paper adopts for its diffusion_nb methods: "this
// allows the client to use remote resources concurrently with its own, and
// provides the programmer with an elegant way of representing results which
// are not yet available."
type Future struct {
	mu      sync.Mutex
	done    chan struct{}
	scalars []byte
	err     error

	// rec/rank record how long the caller blocked in Wait (the future-wait
	// span) when the binding traces. The invocation token is not known when
	// the future is handed out, so future-wait spans carry trace 0.
	rec  *obs.Recorder
	rank int32
}

func newFuture() *Future {
	return &Future{done: make(chan struct{})}
}

func (f *Future) complete(scalars []byte, err error) {
	f.mu.Lock()
	f.scalars = scalars
	f.err = err
	f.mu.Unlock()
	close(f.done)
}

// Done returns a channel closed when the result is available.
func (f *Future) Done() <-chan struct{} { return f.done }

// Ready reports whether the result is available without blocking.
func (f *Future) Ready() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the invocation completes and returns the reply's scalar
// payload. Distributed out/inout arguments have been updated in place by
// the time Wait returns.
func (f *Future) Wait() ([]byte, error) {
	if f.rec != nil && !f.Ready() {
		start := time.Now()
		<-f.done
		f.rec.Record(obs.Span{Phase: obs.PhaseFutureWait, Rank: f.rank,
			Start: start.UnixNano(), Dur: int64(time.Since(start))})
	} else {
		<-f.done
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.scalars, f.err
}

// WaitTimeout is Wait with a deadline; ok reports whether the result
// arrived in time.
func (f *Future) WaitTimeout(d time.Duration) (scalars []byte, err error, ok bool) {
	select {
	case <-f.done:
		s, e := f.Wait()
		return s, e, true
	case <-time.After(d):
		return nil, nil, false
	}
}

// InvokeNB performs a collective non-blocking invocation: it returns
// immediately with a Future per computing thread; the invocation proceeds
// on background goroutines over the binding's communicator. All threads
// must call InvokeNB collectively, and must not touch the distributed
// arguments until their futures resolve. Each thread's future resolves when
// that thread's share of the invocation (including result delivery and the
// post-invocation synchronization) is complete.
//
// One invocation may be outstanding on a binding at a time: issuing another
// before its future resolves fails with ErrBusy rather than interleaving
// collective traffic. A client that wants two calls in flight binds twice;
// each binding has an engine communicator of its own.
func (b *Binding) InvokeNB(op string, scalars []byte, args []DistArg) *Future {
	return b.InvokeNBMethod(b.method, op, scalars, args)
}

// InvokeNBMethod is InvokeNB with an explicit transfer method.
func (b *Binding) InvokeNBMethod(method Method, op string, scalars []byte, args []DistArg) *Future {
	f := newFuture()
	f.rec, f.rank = b.rec, int32(b.comm.Rank())
	if err := b.acquireLane(); err != nil {
		f.complete(nil, err)
		return f
	}
	go func() {
		res, err := b.invoke(method, op, scalars, args, nil)
		// Release before completing, so a caller that has waited on the
		// future can immediately issue the next invocation.
		b.releaseLane()
		f.complete(res, err)
	}()
	return f
}
