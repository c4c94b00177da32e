package rts

import (
	"sync"
	"sync/atomic"
	"time"
)

// message is a single point-to-point message in flight.
type message struct {
	ctx  int // communication context (see Comm.Dup)
	src  int
	tag  int
	data []byte
}

// mailbox holds the messages destined for one rank. Receives match on
// (ctx, src, tag) with wildcard support; among messages matching a receive,
// delivery order equals send order (MPI non-overtaking rule), because the
// queue is scanned front to back and senders append under the same lock.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []message
	closed bool
}

// bcastTimer is a reusable take deadline timer. The target mailbox is
// retargeted on every reuse; the timer func broadcasts whichever mailbox is
// current when it fires. A stale fire after a retarget is just a spurious
// wakeup for the new target, so Reset/Stop racing the func is benign.
type bcastTimer struct {
	t  *time.Timer
	mb atomic.Pointer[mailbox]
}

// timerPool is shared by all mailboxes of all worlds: pooling globally
// instead of per mailbox keeps the number of sync.Pool instances — each of
// which pins per-P slots on first use — independent of world size.
var timerPool sync.Pool

func armTimer(mb *mailbox, d time.Duration) *bcastTimer {
	if bt, ok := timerPool.Get().(*bcastTimer); ok {
		bt.mb.Store(mb)
		bt.t.Reset(d)
		return bt
	}
	bt := &bcastTimer{}
	bt.mb.Store(mb)
	bt.t = time.AfterFunc(d, func() {
		if target := bt.mb.Load(); target != nil {
			target.mu.Lock()
			target.cond.Broadcast()
			target.mu.Unlock()
		}
	})
	return bt
}

func (bt *bcastTimer) release() {
	if bt == nil {
		return
	}
	bt.t.Stop()
	bt.mb.Store(nil)
	timerPool.Put(bt)
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrWorldClosed
	}
	mb.queue = append(mb.queue, m)
	mb.cond.Broadcast()
	return nil
}

// match reports whether msg satisfies a receive for (ctx, src, tag).
func match(m message, ctx, src, tag int) bool {
	if m.ctx != ctx {
		return false
	}
	if src != AnySource && m.src != src {
		return false
	}
	if tag != AnyTag && m.tag != tag {
		return false
	}
	return true
}

// take removes and returns the first message matching (ctx, src, tag),
// blocking until one is available or the mailbox is closed. A positive d
// bounds the wait: no match within d is ErrTimeout.
func (mb *mailbox) take(ctx, src, tag int, d time.Duration) (message, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var deadline time.Time
	var timer *bcastTimer
	for {
		for i := range mb.queue {
			if match(mb.queue[i], ctx, src, tag) {
				m := mb.queue[i]
				mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
				timer.release()
				return m, nil
			}
		}
		if mb.closed {
			timer.release()
			return message{}, ErrWorldClosed
		}
		if d > 0 {
			if timer == nil {
				// Arm the deadline only when the receive actually has to
				// wait: a receive satisfied straight from the queue never
				// touches a timer, and waiters reuse pooled ones.
				deadline = time.Now().Add(d)
				timer = armTimer(mb, d)
			} else if !time.Now().Before(deadline) {
				timer.release()
				return message{}, ErrTimeout
			}
		}
		mb.cond.Wait()
	}
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}
