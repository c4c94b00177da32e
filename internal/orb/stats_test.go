package orb

import (
	"io"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestStatsUnderAdmissionOverload pins the accounting identity of the
// admission layer under concurrent overload: every offered request is either
// dispatched or shed (never lost, never double-counted), and the in-flight
// and queued gauges drain back to zero once the storm passes. The servant
// blocks until explicitly released, so admission is purely capacity-driven:
// exactly cap+queue requests are admitted and the rest shed, whatever the
// arrival interleaving — which makes the expected counts exact even under
// -race scheduling jitter.
func TestStatsUnderAdmissionOverload(t *testing.T) {
	cases := []struct {
		name        string
		maxInFlight int
		queueDepth  int // -1 disables queueing
		clients     int
		perClient   int
	}{
		{"tiny-budget", 2, 1, 8, 4},
		{"no-queue", 3, -1, 6, 5},
		{"wide-queue", 4, 16, 10, 3},
		{"single-slot", 1, 2, 12, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv, addr, release := blockingServer(t, ServerOptions{
				MaxInFlight:     tc.maxInFlight,
				QueueDepth:      tc.queueDepth,
				MaxConnInFlight: -1, // the identity under test is the global ledger
				Metrics:         reg,
			}, []byte("ledger"))

			capacity := tc.maxInFlight
			if tc.queueDepth > 0 {
				capacity += tc.queueDepth
			}
			offered := tc.clients * tc.perClient
			if offered <= capacity {
				t.Fatalf("bad case: offered %d does not overload capacity %d", offered, capacity)
			}

			errs := make(chan error, offered)
			for i := 0; i < tc.clients; i++ {
				c := NewClient()
				c.Timeout = 10 * time.Second
				defer c.Close()
				for j := 0; j < tc.perClient; j++ {
					go func() {
						_, err := c.InvokeAddr(addr, []byte("ledger"), "work", NewArgEncoder().Bytes(), false)
						errs <- err
					}()
				}
			}

			// Nothing completes until release, so the overflow must shed with
			// TRANSIENT on its own — exactly offered-capacity of it.
			deadline := time.After(10 * time.Second)
			for shed := 0; shed < offered-capacity; {
				select {
				case err := <-errs:
					if !IsTransient(err) {
						t.Fatalf("saturated server returned %v, want TRANSIENT", err)
					}
					shed++
				case <-deadline:
					t.Fatalf("overflow not fully shed; %d requests queued beyond capacity", offered-capacity)
				}
			}

			close(release)
			for i := 0; i < capacity; i++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatalf("admitted request failed after release: %v", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("admitted request never completed")
				}
			}

			st := srv.Stats()
			if st.Dispatched+st.Shed != uint64(offered) {
				t.Errorf("dispatched %d + shed %d != offered %d", st.Dispatched, st.Shed, offered)
			}
			if st.Dispatched != uint64(capacity) {
				t.Errorf("dispatched %d, want exactly capacity %d", st.Dispatched, capacity)
			}
			if st.InFlight != 0 || st.Queued != 0 {
				t.Errorf("gauges not drained: in flight %d, queued %d", st.InFlight, st.Queued)
			}

			// The registry's pull source must agree with Stats exactly — it is
			// the same ledger surfaced a second way, not a parallel count.
			snap := reg.Snapshot()
			if got := snap.Pulled["orb.server.dispatched"]; got != int64(st.Dispatched) {
				t.Errorf("pulled dispatched %d, want %d", got, st.Dispatched)
			}
			if got := snap.Pulled["orb.server.shed"]; got != int64(st.Shed) {
				t.Errorf("pulled shed %d, want %d", got, st.Shed)
			}
			if got := snap.Pulled["orb.server.in_flight"]; got != 0 {
				t.Errorf("pulled in_flight %d, want 0", got)
			}
			if h := snap.Histograms["orb.server.handle_ns"]; h.Count != st.Dispatched {
				t.Errorf("handle_ns observed %d dispatches, want %d", h.Count, st.Dispatched)
			}
		})
	}
}

// lingerAfterWrite delays the return of every Write: the bytes are already
// with the peer, but the writer has not yet got its call back. It widens the
// window between "the client holds its reply" and "the server's reply write
// returned" from nanoseconds to something a serial client always lands in.
type lingerAfterWrite struct{ io.ReadWriteCloser }

func (w lingerAfterWrite) Write(p []byte) (int, error) {
	n, err := w.ReadWriteCloser.Write(p)
	time.Sleep(2 * time.Millisecond)
	return n, err
}

// TestSerialClientNeverShedForItsOwnReply is the regression test for the
// admission ledger settling only after the reply write: a strictly serial
// client on a one-request-per-connection budget holds at most one slot at a
// time by construction, so none of its calls may be shed, and the moment it
// holds a reply the ledger must already balance (offered = dispatched + shed,
// nothing in flight, every dispatch timed).
func TestSerialClientNeverShedForItsOwnReply(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServerOpts("127.0.0.1:0", ServerOptions{
		MaxConnInFlight: 1,
		Metrics:         reg,
		Transport: &transport.Options{
			Order: cdr.NativeOrder,
			Wrap:  func(rw io.ReadWriteCloser) io.ReadWriteCloser { return lingerAfterWrite{rw} },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	key := []byte("serial")
	srv.Register(key, ServantFunc(func(string, *cdr.Decoder, *cdr.Encoder) error { return nil }))
	c := NewClient()
	c.Timeout = 10 * time.Second
	defer c.Close()

	const calls = 25
	for i := 1; i <= calls; i++ {
		if _, err := c.InvokeAddr(srv.Addr(), key, "work", NewArgEncoder().Bytes(), false); err != nil {
			t.Fatalf("serial call %d: %v", i, err)
		}
		st := srv.Stats()
		if st.Dispatched != uint64(i) || st.Shed != 0 || st.InFlight != 0 {
			t.Fatalf("after reply %d: dispatched %d, shed %d, in flight %d", i, st.Dispatched, st.Shed, st.InFlight)
		}
		if h := reg.Snapshot().Histograms["orb.server.handle_ns"]; h.Count != uint64(i) {
			t.Fatalf("after reply %d: handle_ns observed %d dispatches", i, h.Count)
		}
	}
}
