package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/transport"
)

// replicaGroup is one SPMD server group serving as one profile of a
// replicated name.
type replicaGroup struct {
	world *rts.World
	mu    sync.Mutex
	objs  []*Object // per computing thread
	errCh chan error
}

// kill closes every thread's object of the group and waits for its world to
// stop serving.
func (g *replicaGroup) kill() error {
	g.mu.Lock()
	for _, o := range g.objs {
		if o != nil {
			o.Close()
		}
	}
	g.mu.Unlock()
	select {
	case err := <-g.errCh:
		g.errCh <- nil // keep the cleanup's read satisfied
		if err != nil && !errors.Is(err, ErrStopped) {
			return fmt.Errorf("killed replica group: %w", err)
		}
		return nil
	case <-time.After(testTimeout):
		return errors.New("killed replica group did not stop")
	}
}

// startReplicaGroups exports n independent multi-port groups of threads
// computing threads each, one after the other, and thread 0 of each announces
// its reference under the name "replicas" through naming's BindReplica, so
// profile order is announcement order.
func startReplicaGroups(t *testing.T, ns *naming.Server, n, threads int) []*replicaGroup {
	t.Helper()
	groups := make([]*replicaGroup, n)
	for i := range groups {
		g := &replicaGroup{
			world: rts.NewWorld(threads, rts.Options{RecvTimeout: testTimeout}),
			objs:  make([]*Object, threads),
			errCh: make(chan error, 1),
		}
		ready := make(chan error, threads)
		go func() {
			g.errCh <- g.world.Run(func(c *rts.Comm) error {
				obj, err := Export(c, ExportOptions{TypeID: "IDL:replica_object:1.0", Multiport: true}, testObjectOps(nil))
				if err == nil {
					g.mu.Lock()
					g.objs[c.Rank()] = obj
					g.mu.Unlock()
					if c.Rank() == 0 {
						cli := orb.NewClient()
						err = naming.NewResolver(cli, ns.Addr()).BindReplica("replicas", obj.Ref())
						cli.Close()
					}
				}
				ready <- err
				if err != nil {
					return err
				}
				return obj.Serve()
			})
		}()
		groups[i] = g
		t.Cleanup(func() {
			if err := g.kill(); err != nil {
				t.Error(err)
			}
			g.world.Close()
		})
		for range threads {
			select {
			case err := <-ready:
				if err != nil {
					t.Fatalf("replica group %d: %v", i, err)
				}
			case <-time.After(testTimeout):
				t.Fatal("replica group never became ready")
			}
		}
	}
	return groups
}

// TestReplicaFailoverMovesEveryLeg: a two-profile replica group, two threads
// per profile, whose primary is gone. Every transfer shape fails over whole —
// the header, the argument data and the results all go to the replica — in
// well under a second and with exact contents. While only the request walked
// the profiles, a framed or multi-port leg still went to the primary's
// endpoints: the call failed, after the whole client timeout when framed.
func TestReplicaFailoverMovesEveryLeg(t *testing.T) {
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	replicas := startReplicaGroups(t, ns, 2, 2)

	const small, framed = 64, 1 << 16
	rows := []struct {
		name   string
		method Method
		dir    Dir
		n      int
	}{
		{"in-message in", Centralized, In, small}, {"in-message inout", Centralized, InOut, small}, {"in-message out", Centralized, Out, small},
		{"framed in", Centralized, In, framed}, {"framed inout", Centralized, InOut, framed}, {"framed out", Centralized, Out, framed},
		{"multi-port in", Multiport, In, framed}, {"multi-port out", Multiport, Out, framed},
	}
	w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	err = w.Run(func(c *rts.Comm) error {
		b, err := SPMDBind(c, "replicas", ns.Addr(), BindOptions{Timeout: 3 * time.Second})
		if err != nil {
			return err
		}
		defer b.Close()
		if c.Rank() == 0 {
			if err := replicas[0].kill(); err != nil {
				return err
			}
		}
		for _, row := range rows {
			start := time.Now()
			err := failoverCall(c, b, row.method, row.dir, row.n)
			if took := time.Since(start); err == nil && took > time.Second {
				err = fmt.Errorf("took %v", took)
			}
			if err != nil {
				t.Errorf("thread %d, %s: %v", c.Rank(), row.name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// failoverCall makes one call of testObjectOps with an argument of n elements
// in direction dir and checks what came back.
func failoverCall(c *rts.Comm, b *Binding, method Method, dir Dir, n int) error {
	arr, err := dseq.New(c, dseq.Float64, n, nil)
	if err != nil {
		return err
	}
	arr.FillFunc(func(g int) float64 { return float64(g + 1) })
	switch dir {
	case In:
		reply, err := b.InvokeMethod(method, "sum", ScalarEncoder().Bytes(), []DistArg{InSeq(arr)}, nil)
		if err != nil {
			return err
		}
		d, err := ScalarDecoder(reply)
		if err != nil {
			return err
		}
		if sum, err := d.ReadDouble(); err != nil || sum != float64(n*(n+1)/2) {
			return fmt.Errorf("sum %v (%v), want %d", sum, err, n*(n+1)/2)
		}
		return nil
	case InOut:
		if _, err := b.InvokeMethod(method, "scale", scaleScalars(3), []DistArg{InOutSeq(arr)}, nil); err != nil {
			return err
		}
		return holds(arr, func(g int) float64 { return float64(g+1) * 3 })
	default:
		if err := arr.ResizeAlloc(0); err != nil {
			return err
		}
		if _, err := b.InvokeMethod(method, "iota", scaleScalars(int32(n)), []DistArg{OutSeq(arr)}, nil); err != nil {
			return err
		}
		if arr.Len() != n {
			return fmt.Errorf("out result of %d elements, want %d", arr.Len(), n)
		}
		return holds(arr, func(g int) float64 { return float64(g) + 0.5 })
	}
}

func readTag(t *testing.T, reply []byte) string {
	t.Helper()
	d, err := ScalarDecoder(reply)
	if err == nil {
		var tag string
		if tag, err = d.ReadString(); err == nil {
			return tag
		}
	}
	t.Error(err)
	return ""
}

// holds checks that every element of arr is want of its global index.
func holds(arr *dseq.Seq[float64], want func(g int) float64) error {
	full, err := arr.Collect()
	if err != nil {
		return err
	}
	for g, v := range full {
		if v != want(g) {
			return fmt.Errorf("element %d holds %v, want %v", g, v, want(g))
		}
	}
	return nil
}

// dieOnCall is a hand-rolled replica that describes itself like any other and,
// given a call, loses its connection with no reply: the request was written
// and may have run, and its outcome is unknown.
type dieOnCall struct{ calls *atomic.Int32 }

func (s dieOnCall) Dispatch(string, *cdr.Decoder, *cdr.Encoder) error {
	return orb.Marshal(errors.New("the adapter did not say which connection"))
}

func (s dieOnCall) DispatchConn(conn *transport.Conn, op string, in *cdr.Decoder, out *cdr.Encoder) (bool, error) {
	if op == describeOp {
		encodeOpTable(out, []OpDesc{{Name: "who"}})
		return false, nil
	}
	s.calls.Add(1)
	conn.Close()
	return false, nil
}

// slowToAnswer is a hand-rolled primary that describes itself like any other
// and answers a call only once release is closed, after the client timeout:
// the request was dispatched and may still run.
type slowToAnswer struct {
	calls   *atomic.Int32
	release chan struct{}
}

func (s slowToAnswer) Dispatch(op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if op == describeOp {
		encodeOpTable(out, []OpDesc{{Name: "who"}})
		return nil
	}
	s.calls.Add(1)
	<-s.release
	encodeReplyPrefix(out, ScalarEncoder().Bytes(), 0, 0)
	return nil
}

// TestReplicaAmbiguousFailure: the primary fails after the request was
// written — it drops its connection, or it answers only after the client
// timeout — so the request may have run. The keyless walk moves on past a
// dropped connection, so that call runs again on the successor and succeeds.
// A timeout is not run again: every thread ends with the same COMM_FAILURE,
// byte for byte (sharing renders the timeout as the COMM_FAILURE a dropped
// connection also is), and the successor never sees it.
func TestReplicaAmbiguousFailure(t *testing.T) {
	for _, row := range []struct {
		name string
		slow bool
	}{{"dies", false}, {"slow", true}} {
		t.Run(row.name, func(t *testing.T) {
			var called, answered atomic.Int32
			primary, err := orb.NewServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			release := make(chan struct{})
			defer close(release)
			alive, err := orb.NewServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer alive.Close()
			key := []byte("spmd/replica")
			var servant orb.Servant = dieOnCall{&called}
			if row.slow {
				servant = slowToAnswer{&called, release}
			}
			primary.Register(key, servant)
			alive.Register(key, orb.ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
				if op == describeOp {
					encodeOpTable(out, []OpDesc{{Name: "who"}})
					return nil
				}
				answered.Add(1)
				tag := ScalarEncoder()
				tag.WriteString("alive")
				encodeReplyPrefix(out, tag.Bytes(), 0, 0)
				return nil
			}))
			ref := orb.IOR{TypeID: "IDL:replica:1.0", Key: key, Threads: 1, Endpoints: []orb.Endpoint{primary.Endpoint(0)},
				Alternates: [][]orb.Endpoint{{alive.Endpoint(0)}}}

			w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
			defer w.Close()
			outcomes := make([][]byte, 2)
			err = w.Run(func(c *rts.Comm) error {
				b, err := SPMDBindRef(c, ref, BindOptions{Timeout: 300 * time.Millisecond})
				if err != nil {
					return err
				}
				defer b.Close()
				reply, err := b.Invoke("who", nil, nil)
				var se *orb.SystemException
				if err == nil && readTag(t, reply) != "alive" {
					t.Errorf("thread %d: served by %q", c.Rank(), reply)
				} else if err != nil && (!errors.As(err, &se) || se.RepoID != orb.RepoComm) {
					t.Errorf("thread %d: %v, want COMM_FAILURE", c.Rank(), err)
				}
				e := cdr.NewEncoder(cdr.NativeOrder)
				orb.EncodeOutcome(e, err)
				outcomes[c.Rank()] = e.Bytes()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(outcomes[0], outcomes[1]) {
				t.Errorf("threads ended differently: %q and %q", outcomes[0], outcomes[1])
			}
			rerun := !row.slow
			failed, reran := !bytes.Equal(outcomes[0], []byte{0}), answered.Load() != 0
			if called.Load() != 1 || failed == rerun || reran != rerun {
				t.Errorf("the primary saw %d calls, its successor %d, the invocation failed: %v (%q)", called.Load(), answered.Load(), failed, outcomes[0])
			}
		})
	}
}
