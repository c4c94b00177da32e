package orb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// framesServant answers "hold" once release is closed, panics on "panic",
// raises a user exception whose payload is the call's argument on "fail", and
// answers anything else at once.
func framesServant(release chan struct{}) Servant {
	return ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
		switch op {
		case "hold":
			<-release
		case "panic":
			panic("servant exploded")
		case "fail":
			p, err := in.ReadOctets()
			if err != nil {
				return Marshal(err)
			}
			return &UserException{RepoID: "IDL:test/Refused:1.0", Message: "as asked", Payload: p}
		case "sleep":
			time.Sleep(200 * time.Millisecond)
		}
		out.WriteULong(1)
		return nil
	})
}

// TestLateReplyReturnsItsFrame: a call that times out before its reply comes
// leaves the reply nobody's, and the client's read loop gives its frame back.
func TestLateReplyReturnsItsFrame(t *testing.T) {
	defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
	key := []byte("late")
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(key, framesServant(nil))
	c := NewClient()
	c.Timeout = 50 * time.Millisecond
	defer c.Close()
	if _, err := c.InvokeAddr(nil, srv.Addr(), key, "sleep", NewArgEncoder().Bytes(), false); !errors.Is(err, ErrInvokeTimeout) {
		t.Fatalf("a 200 ms call under a 50 ms timeout: %v, want ErrInvokeTimeout", err)
	}
	// The next call sleeps as long, started later: its reply comes behind the
	// late one on the connection, so the read loop has dealt with that by then.
	c.Timeout = 10 * time.Second
	if _, err := c.InvokeAddr(nil, srv.Addr(), key, "sleep", NewArgEncoder().Bytes(), false); err != nil {
		t.Fatal(err)
	}
}

// TestUserExceptionOwnsItsPayload: the payload of a user exception is the
// exception's, not a view of the reply it came in, whose frame the next call
// on the connection reads its reply into.
func TestUserExceptionOwnsItsPayload(t *testing.T) {
	key := []byte("owns")
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register(key, framesServant(nil))
	c := newTestClient(t)
	payload := []byte("the first call's payload")
	_, err = c.InvokeAddr(nil, srv.Addr(), key, "fail", encodeArgs(func(e *cdr.Encoder) { e.WriteOctets(payload) }), false)
	var ue *UserException
	if !errors.As(err, &ue) {
		t.Fatalf("got %v, want a user exception", err)
	}
	if _, err := c.InvokeAddr(nil, srv.Addr(), key, "fail", encodeArgs(func(e *cdr.Encoder) { e.WriteOctets(bytes.Repeat([]byte{'x'}, len(payload))) }), false); err == nil {
		t.Fatal("the second call succeeded")
	}
	if !bytes.Equal(ue.Payload, payload) {
		t.Fatalf("after the next call the exception carries %q, want %q", ue.Payload, payload)
	}
}

// TestEveryPathReturnsItsFrame drives every way the adapter finishes with a
// request — shed while draining, at the connection cap and saturated, oneway,
// for an unknown key, after a servant panic, and shed from the queue by
// Shutdown — and each must leave the frame pool as it found it: the request's
// frame back from the adapter, the reply's from the client.
func TestEveryPathReturnsItsFrame(t *testing.T) {
	key := []byte("frames")
	type env struct {
		srv  *Server
		call func(key []byte, op string, oneway bool) error
		hold func(n int) chan error // n calls the servant parks until release, each in flight or queued once it returns
	}
	transient := func(err error) error {
		if !IsTransient(err) {
			return fmt.Errorf("want TRANSIENT, got %v", err)
		}
		return nil
	}
	cases := []struct {
		name  string
		opts  ServerOptions
		drive func(t *testing.T, e env) error
	}{
		{"draining", ServerOptions{}, func(t *testing.T, e env) error {
			e.hold(1)
			go e.srv.Shutdown(context.Background())
			testutil.Eventually(t, 5*time.Second, "Shutdown never began draining", e.srv.draining.Load)
			return transient(e.call(key, "echo", false))
		}},
		{"connection cap", ServerOptions{MaxConnInFlight: 1}, func(t *testing.T, e env) error {
			e.hold(1)
			return transient(e.call(key, "echo", false))
		}},
		{"saturated", ServerOptions{MaxInFlight: 1, QueueDepth: -1, MaxConnInFlight: -1}, func(t *testing.T, e env) error {
			e.hold(1)
			return transient(e.call(key, "echo", false))
		}},
		{"oneway", ServerOptions{}, func(t *testing.T, e env) error {
			if err := e.call(key, "echo", true); err != nil {
				return err
			}
			testutil.Eventually(t, 5*time.Second, "the oneway was never dispatched", func() bool { return e.srv.Stats().Dispatched == 1 })
			return nil
		}},
		{"unknown key", ServerOptions{}, func(t *testing.T, e env) error {
			var se *SystemException
			if err := e.call([]byte("nobody"), "echo", false); !errors.As(err, &se) || se.RepoID != RepoObjectNotExist {
				return fmt.Errorf("want OBJECT_NOT_EXIST, got %v", err)
			}
			return nil
		}},
		{"servant panic", ServerOptions{}, func(t *testing.T, e env) error {
			var se *SystemException
			if err := e.call(key, "panic", false); !errors.As(err, &se) || se.RepoID != RepoInternal {
				return fmt.Errorf("want INTERNAL, got %v", err)
			}
			return nil
		}},
		{"shutdown sheds the queue", ServerOptions{MaxInFlight: 1, QueueDepth: 4, MaxConnInFlight: -1}, func(t *testing.T, e env) error {
			e.hold(1)
			queued := e.hold(2)
			go e.srv.Shutdown(context.Background())
			for range 2 {
				if err := transient(<-queued); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
			srv, err := NewServerOpts("127.0.0.1:0", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			release := make(chan struct{})
			srv.Register(key, framesServant(release))
			c := NewClient()
			c.Timeout = 10 * time.Second
			defer c.Close()
			defer close(release) // first: the held calls end before their client does
			e := env{srv: srv, call: func(key []byte, op string, oneway bool) error {
				_, err := c.InvokeAddr(nil, srv.Addr(), key, op, NewArgEncoder().Bytes(), oneway)
				return err
			}}
			held := 0
			e.hold = func(n int) chan error {
				errs := make(chan error, n)
				for range n {
					go func() { errs <- e.call(key, "hold", false) }()
				}
				held += n
				testutil.Eventually(t, 5*time.Second, "the held calls never reached the adapter", func() bool {
					st := srv.Stats()
					return st.InFlight+st.Queued == held
				})
				return errs
			}
			if err := tc.drive(t, e); err != nil {
				t.Fatal(err)
			}
		})
	}
}
