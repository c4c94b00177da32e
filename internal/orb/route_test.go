package orb

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/obs"
)

// replicaRef builds an n-replica group: n echo servers answering "who" with
// "replica-<i>", merged into one multi-profile reference in announcement
// order, the primary first.
func replicaRef(t *testing.T, n int) (IOR, []*Server) {
	t.Helper()
	key := []byte("replicated")
	servers := make([]*Server, n)
	ref := IOR{TypeID: "IDL:test/replica:1.0", Key: key, Threads: 1}
	for i := range servers {
		srv := echoServer(t, "127.0.0.1:0", "replica-"+string(rune('0'+i)), key)
		t.Cleanup(func() { srv.Close() })
		servers[i] = srv
		if i == 0 {
			ref.Endpoints = []Endpoint{srv.Endpoint(0)}
		} else {
			ref.AddProfile([]Endpoint{srv.Endpoint(0)})
		}
	}
	return ref, servers
}

// TestFailoverCountsOnlyMoves: orb.client.failovers counts moves to another
// profile. A failure with no profile left to move to is no failover, and an
// application error means the profile answered: it returns as-is and the walk
// goes no further.
func TestFailoverCountsOnlyMoves(t *testing.T) {
	args := NewArgEncoder().Bytes()
	for _, tc := range []struct {
		name      string
		profiles  int   // replicas in the reference
		closed    []int // replicas closed before the call
		op        string
		wantErr   bool
		failovers uint64
	}{
		{name: "one profile closed", profiles: 1, closed: []int{0}, op: "who", wantErr: true},
		{name: "primary closed", profiles: 2, closed: []int{0}, op: "who", failovers: 1},
		{name: "both closed", profiles: 2, closed: []int{0, 1}, op: "who", wantErr: true, failovers: 1},
		{name: "application error", profiles: 2, op: "no-such-op", wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, servers := replicaRef(t, tc.profiles)
			// The primary rejects unknown operations; every later replica
			// counts what reaches it.
			var later atomic.Int32
			servers[0].Register(ref.Key, ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
				if op != "who" {
					return BadOperation(op)
				}
				out.WriteString("replica-0")
				return nil
			}))
			for _, srv := range servers[1:] {
				srv.Register(ref.Key, ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
					later.Add(1)
					out.WriteString("later")
					return nil
				}))
			}
			for _, i := range tc.closed {
				servers[i].Close()
			}
			reg := obs.NewRegistry()
			c := NewClient()
			c.Timeout = 5 * time.Second
			c.Metrics = reg
			defer c.Close()

			_, err := c.Invoke(ref, tc.op, args, false)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Invoke: %v, want an error: %v", err, tc.wantErr)
			}
			if got := reg.Counter("orb.client.failovers").Value(); got != tc.failovers {
				t.Errorf("counted %d failovers, want %d", got, tc.failovers)
			}
			if tc.op == "who" {
				return
			}
			var se *SystemException
			if !errors.As(err, &se) || se.RepoID != RepoBadOperation {
				t.Errorf("the primary's application error came back as %v, want BAD_OPERATION as-is", err)
			}
			if n := later.Load(); n != 0 {
				t.Errorf("the second replica's servant ran %d times after an application error", n)
			}
		})
	}
}
