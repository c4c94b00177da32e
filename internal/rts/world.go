package rts

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Wildcards for Comm.Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Errors returned by the run-time system.
var (
	ErrWorldClosed = errors.New("rts: world closed")
	ErrTimeout     = errors.New("rts: receive timed out")
	ErrRank        = errors.New("rts: rank out of range")
	ErrTag         = errors.New("rts: negative tags are reserved for collectives")
	ErrSizes       = errors.New("rts: buffer sizes inconsistent across ranks")
)

// Options configure a World.
type Options struct {
	// RecvTimeout bounds every internal receive; zero means no bound.
	// Tests set this to surface deadlocks as errors instead of hangs.
	RecvTimeout time.Duration
}

// World is a set of SPMD computing threads ("ranks") that can communicate.
// It corresponds to the set of computing threads PARDIS makes visible to the
// request broker for one parallel application.
type World struct {
	size      int
	opts      Options
	mailboxes []*mailbox

	mu      sync.Mutex
	nextCtx int
	closed  bool
}

// NewWorld creates a world of n computing threads. It panics if n < 1, as a
// world size is always a static property of the program.
func NewWorld(n int, opts ...Options) *World {
	if n < 1 {
		panic(fmt.Sprintf("rts.NewWorld: invalid size %d", n))
	}
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	w := &World{size: n, opts: o, nextCtx: 1}
	w.mailboxes = make([]*mailbox, n)
	for i := range w.mailboxes {
		w.mailboxes[i] = newMailbox()
	}
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Comm returns the communicator handle for one rank in the default context.
// Callers that manage their own goroutines use this; most callers use Run.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("rts.World.Comm: rank %d out of range [0,%d)", rank, w.size))
	}
	return &Comm{world: w, rank: rank, ctx: 0}
}

// Run executes fn on every rank concurrently, one goroutine per rank, and
// returns after all ranks complete. If any rank's fn panics, Run recovers
// the panic, closes the world (unblocking the other ranks), and returns the
// panic as an error. Run may be called multiple times; contexts allocated by
// Dup remain valid across calls.
func (w *World) Run(fn func(*Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("rts: rank %d panicked: %v", rank, p)
					w.Close()
				}
			}()
			errs[rank] = fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close shuts down the world; blocked receives return ErrWorldClosed.
func (w *World) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	for _, mb := range w.mailboxes {
		mb.close()
	}
}

// allocCtx hands out a fresh communication context id. It is called from
// exactly one rank per Dup (rank 0) and broadcast to the others, so ids are
// agreed upon collectively.
func (w *World) allocCtx() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	id := w.nextCtx
	w.nextCtx++
	return id
}
