package rts

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func testWorld(t *testing.T, n int) *World {
	t.Helper()
	w := NewWorld(n, Options{RecvTimeout: 10 * time.Second})
	t.Cleanup(w.Close)
	return w
}

func run(t *testing.T, n int, fn func(*Comm) error) {
	t.Helper()
	w := testWorld(t, n)
	if err := w.Run(fn); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// A correct SPMD program leaves no message undelivered at the end of Run.
	for r, mb := range w.mailboxes {
		mb.mu.Lock()
		left := len(mb.queue)
		mb.mu.Unlock()
		if left != 0 {
			t.Fatalf("world left %d undelivered messages at rank %d", left, r)
		}
	}
}

func TestSendRecvBasic(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		d, st, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(d) != "hello" || st.Source != 0 || st.Tag != 7 || st.Len != 5 {
			return fmt.Errorf("got %q status %+v", d, st)
		}
		return nil
	})
}

func TestRecvBeforeSend(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			d, _, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if string(d) != "late" {
				return fmt.Errorf("got %q", d)
			}
			return nil
		}
		time.Sleep(20 * time.Millisecond) // receiver blocks first
		return c.Send(1, 1, []byte("late"))
	})
}

func TestNonOvertaking(t *testing.T) {
	const n = 100
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			d, _, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if d[0] != byte(i) {
				return fmt.Errorf("message %d overtaken by %d", i, d[0])
			}
		}
		return nil
	})
}

func TestTagSelectivity(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 5, []byte("five")); err != nil {
				return err
			}
			return c.Send(1, 4, []byte("four"))
		}
		// Receive tag 4 first even though tag 5 was sent first.
		d, _, err := c.Recv(0, 4)
		if err != nil {
			return err
		}
		if string(d) != "four" {
			return fmt.Errorf("tag 4 got %q", d)
		}
		d, _, err = c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(d) != "five" {
			return fmt.Errorf("tag 5 got %q", d)
		}
		return nil
	})
}

func TestWildcards(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, c.Rank(), []byte{byte(c.Rank())})
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			d, st, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if int(d[0]) != st.Source || st.Tag != st.Source {
				return fmt.Errorf("mismatched status %+v payload %v", st, d)
			}
			seen[st.Source] = true
		}
		if len(seen) != 3 {
			return fmt.Errorf("saw %d distinct sources", len(seen))
		}
		return nil
	})
}

// TestRecvTimeout: Options.RecvTimeout bounds Recv, on a world of its own
// so the wait is short.
func TestRecvTimeout(t *testing.T) {
	w := NewWorld(2, Options{RecvTimeout: 20 * time.Millisecond})
	t.Cleanup(w.Close)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return nil
		}
		_, _, err := c.Recv(0, 1)
		if !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want ErrTimeout, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArguments(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if err := c.Send(5, 0, nil); !errors.Is(err, ErrRank) {
			return fmt.Errorf("Send bad rank: %v", err)
		}
		if err := c.Send(0, -3, nil); !errors.Is(err, ErrTag) {
			return fmt.Errorf("Send reserved tag: %v", err)
		}
		if _, _, err := c.Recv(9, 0); !errors.Is(err, ErrRank) {
			return fmt.Errorf("Recv bad rank: %v", err)
		}
		if _, _, err := c.Recv(0, -2); !errors.Is(err, ErrTag) {
			return fmt.Errorf("Recv reserved tag: %v", err)
		}
		return nil
	})
}

func TestWorldCloseUnblocksReceivers(t *testing.T) {
	w := NewWorld(2)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := w.Comm(0).Recv(1, 0)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrWorldClosed) {
			t.Fatalf("want ErrWorldClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver not unblocked by Close")
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	w := NewWorld(3, Options{RecvTimeout: 5 * time.Second})
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		_, _, err := c.Recv(1, 0) // would deadlock without Close-on-panic
		return err
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestDupIsolatesContexts(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		d, err := c.Dup()
		if err != nil {
			return err
		}
		if d.Context() == c.Context() {
			return errors.New("Dup did not allocate a new context")
		}
		if d.Rank() != c.Rank() || d.Size() != c.Size() {
			return fmt.Errorf("dup is rank %d of %d, base rank %d of %d", d.Rank(), d.Size(), c.Rank(), c.Size())
		}
		if c.Rank() == 0 {
			// Same (dst, tag) on both contexts; payload tells them apart.
			if err := c.Send(1, 1, []byte("base")); err != nil {
				return err
			}
			return d.Send(1, 1, []byte("dup"))
		}
		// Receive on the dup context first, from any source with any tag: the
		// mailbox is FIFO, so a receive that could see the base context would
		// return the earlier "base".
		got, st, err := d.Recv(AnySource, AnyTag)
		if err != nil {
			return err
		}
		if string(got) != "dup" || st.Source != 0 {
			return fmt.Errorf("dup context received %q from %d", got, st.Source)
		}
		got, _, err = c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(got) != "base" {
			return fmt.Errorf("base context received %q", got)
		}
		return nil
	})
}

func TestDupAgreesAcrossRanks(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		d1, err := c.Dup()
		if err != nil {
			return err
		}
		d2, err := d1.Dup()
		if err != nil {
			return err
		}
		// Verify agreement by round-tripping the context ids through rank 0.
		all, err := c.Gather(0, []byte{byte(d1.Context()), byte(d2.Context())})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r := 1; r < len(all); r++ {
				if !bytes.Equal(all[r], all[0]) {
					return fmt.Errorf("rank %d contexts %v != rank 0 contexts %v", r, all[r], all[0])
				}
			}
		}
		return nil
	})
}

func TestMultipleRunsOnOneWorld(t *testing.T) {
	w := testWorld(t, 3)
	for i := 0; i < 3; i++ {
		if err := w.Run(func(c *Comm) error {
			return c.Barrier()
		}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

func TestNewWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestCommRankPanicsOutOfRange(t *testing.T) {
	w := testWorld(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Comm(7) did not panic")
		}
	}()
	w.Comm(7)
}
