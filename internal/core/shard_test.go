package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/shard"
	"repro/internal/transport"
)

// shardTestOps builds the op table each shard group exports: "who" returns
// the shard's tag, "scale" exercises a distributed inout argument so the
// routed path carries real SPMD payloads, not just scalars, and the shared
// table's "sum" and "iota" take an in and give an out one.
func shardTestOps(tag string) []Operation {
	whoDesc := OpDesc{Name: "who"}
	scaleDesc := OpDesc{Name: "scale", Args: []ArgDesc{{Name: "arr", Dir: InOut, Elem: "double"}}}
	ops := slices.DeleteFunc(testObjectOps(nil), func(op Operation) bool { return op.Desc.Name != "sum" && op.Desc.Name != "iota" })
	return append(ops, []Operation{
		{
			Desc:    whoDesc,
			NewArgs: func(*rts.Comm) ([]dseq.Transferable, error) { return nil, nil },
			Handler: func(call *ServerCall) error {
				call.Out.WriteString(tag)
				return nil
			},
		},
		{
			Desc:    scaleDesc,
			NewArgs: SeqArgsFloat64(scaleDesc.Args),
			Handler: func(call *ServerCall) error {
				factor, err := call.In.ReadLong()
				if err != nil {
					return orb.Marshal(err)
				}
				arr := ArgSeq[float64](call, 0)
				local := arr.LocalData()
				for i := range local {
					local[i] *= float64(factor)
				}
				call.Out.WriteString(tag)
				return nil
			},
		},
	}...)
}

// shardWorld is one SPMD server group acting as a shard.
type shardWorld struct {
	world *rts.World
	mu    sync.Mutex
	objs  []*Object // per computing thread
	errCh chan error
}

// kill closes every thread's object of the shard and waits for its world to
// stop serving.
func (sw *shardWorld) kill() error {
	sw.mu.Lock()
	for _, o := range sw.objs {
		o.Close()
	}
	sw.mu.Unlock()
	select {
	case err := <-sw.errCh:
		sw.errCh <- nil // keep the cleanup's read satisfied
		if err != nil && !errors.Is(err, ErrStopped) {
			return fmt.Errorf("killed shard: %w", err)
		}
		return nil
	case <-time.After(testTimeout):
		return errors.New("killed shard did not stop")
	}
}

// startShardGroup exports n independent multi-port shard groups of threads
// computing threads each under one name via Replica registration,
// sequentially so profile order is announcement order.
func startShardGroup(t *testing.T, ns *naming.Server, n, threads int) []*shardWorld {
	t.Helper()
	shards := make([]*shardWorld, n)
	for i := range shards {
		sw := &shardWorld{
			world: rts.NewWorld(threads, rts.Options{RecvTimeout: testTimeout}),
			objs:  make([]*Object, threads),
			errCh: make(chan error, 1),
		}
		tag := "shard-" + string(rune('0'+i))
		ready := make(chan struct{}, threads)
		go func() {
			sw.errCh <- sw.world.Run(func(c *rts.Comm) error {
				obj, err := Export(c, ExportOptions{
					TypeID:     "IDL:shard_object:1.0",
					Name:       "shardgrp",
					NameServer: ns.Addr(),
					Replica:    true,
					Multiport:  true,
				}, shardTestOps(tag))
				sw.mu.Lock()
				sw.objs[c.Rank()] = obj
				sw.mu.Unlock()
				ready <- struct{}{}
				if err != nil {
					return err
				}
				return obj.Serve()
			})
		}()
		for range threads {
			select {
			case <-ready:
			case <-time.After(testTimeout):
				t.Fatal("shard never became ready")
			}
		}
		sw.mu.Lock()
		exported := !slices.Contains(sw.objs, nil)
		sw.mu.Unlock()
		if !exported {
			t.Fatalf("shard %d failed to export: %v", i, <-sw.errCh)
		}
		shards[i] = sw
		t.Cleanup(func() {
			if err := sw.kill(); err != nil {
				t.Error(err)
			}
			sw.world.Close()
		})
	}
	return shards
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

// TestShardRoutingCoreEndToEnd drives the whole stack: three two-thread shard
// groups published through Replica registration, a two-thread SPMD client
// routing keyed invocations — sticky per key, spread across the group,
// carrying real distributed arguments, in the message, framed and multi-port
// — and transparent reroute when the owner of a key is killed mid-run.
func TestShardRoutingCoreEndToEnd(t *testing.T) {
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	shards := startShardGroup(t, ns, 3, 2)
	reg := obs.NewRegistry()

	w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	err = w.Run(func(c *rts.Comm) error {
		b, err := SPMDBind(c, "shardgrp", ns.Addr(), BindOptions{
			Method:   Centralized,
			Timeout:  testTimeout,
			Breaker:  orb.BreakerPolicy{Threshold: 1, Cooldown: time.Hour},
			Metrics:  reg,
			Sharding: ShardingOptions{Idempotent: true},
		})
		if err != nil {
			return err
		}
		defer b.Close()

		// Keyed invocations: sticky per key and spread over the group.
		tagOf := map[string]string{}
		for round := 0; round < 3; round++ {
			for i := 0; i < 12; i++ {
				key := []byte{'k', byte('0' + i)}
				reply, err := b.InvokeSharded("who", key, nil, nil)
				if err != nil {
					return fmt.Errorf("round %d key %q: %w", round, key, err)
				}
				tag := readTag(t, reply)
				if prev, ok := tagOf[string(key)]; ok && prev != tag {
					t.Errorf("key %q moved from %s to %s on a healthy group", key, prev, tag)
				}
				tagOf[string(key)] = tag
			}
		}
		serving := map[string]bool{}
		for _, tag := range tagOf {
			serving[tag] = true
		}
		if len(serving) < 2 {
			t.Errorf("12 keys all landed on %v; expected a spread", serving)
		}

		// Distributed inout arguments ride the routed invocation — in the
		// message, framed and multi-port — to the key's owner; then the owner
		// is killed, and the same calls reroute, whole, to its successor.
		victim := tagOf["k0"]
		idx := int(victim[len(victim)-1] - '0')
		for _, phase := range []string{"owner", "owner killed"} {
			if phase == "owner killed" && c.Rank() == 0 {
				if err := shards[idx].kill(); err != nil {
					return err
				}
			}
			for _, call := range []struct {
				method Method
				n      int
			}{{Centralized, 8}, {Centralized, 1 << 19}, {Multiport, 1 << 19}} {
				arr, err := dseq.New(c, dseq.Float64, call.n, nil)
				if err != nil {
					return err
				}
				arr.FillFunc(func(g int) float64 { return float64(g + 1) })
				reply, err := b.invokeBlocking(call.method, "scale", []byte("k0"), scaleScalars(3), []DistArg{InOutSeq(arr)}, nil)
				if err != nil {
					return fmt.Errorf("%s: %v scale of %d: %w", phase, call.method, call.n, err)
				}
				if tag := readTag(t, reply); (tag == victim) != (phase == "owner") {
					t.Errorf("%s: %v scale of %d for k0 served by %s, its owner %s", phase, call.method, call.n, tag, victim)
				}
				if err := holds(arr, func(g int) float64 { return float64(g+1) * 3 }); err != nil {
					return fmt.Errorf("%s: %v scale of %d: %w", phase, call.method, call.n, err)
				}
			}
		}
		reply, err := b.InvokeSharded("who", []byte("k0"), nil, nil)
		if err != nil {
			return fmt.Errorf("invocation after killing %s: %w", victim, err)
		}
		if tag := readTag(t, reply); tag == victim {
			t.Errorf("killed shard %s answered", victim)
		}
		if got := reg.Counter("shard.reroute_total").Value(); got == 0 {
			t.Error("reroute not visible in the binding's metrics registry")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardRoutingMultiport: a shard key routes a multi-port invocation like
// any other — its data flows between the owning threads of the key's shard —
// and the exchange's span names that shard on every thread.
func TestShardRoutingMultiport(t *testing.T) {
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	startShardGroup(t, ns, 2, 2)
	rec := obs.NewRecorder(256)

	w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	err = w.Run(func(c *rts.Comm) error {
		b, err := SPMDBind(c, "shardgrp", ns.Addr(), BindOptions{Method: Multiport, Timeout: testTimeout, Trace: rec})
		if err != nil {
			return err
		}
		defer b.Close()
		arr, err := dseq.New(c, dseq.Float64, 1000, nil)
		if err != nil {
			return err
		}
		arr.FillFunc(func(g int) float64 { return float64(g) })
		if _, err := b.InvokeSharded("scale", []byte("k"), scaleScalars(2), []DistArg{InOutSeq(arr)}); err != nil {
			return err
		}
		return holds(arr, func(g int) float64 { return float64(g) * 2 })
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := int32(0); r < 2; r++ {
		found := false
		for _, sp := range rec.Spans() {
			found = found || sp.Rank == r && sp.Phase == obs.PhaseSendRecv && sp.Shard > 0
		}
		if !found {
			t.Errorf("client thread %d recorded no send/recv span with Shard > 0", r)
		}
	}
}

// dieOnCall is a hand-rolled shard that describes itself like any other and,
// given a call, loses its connection with no reply: the request was written
// and may have run, and its outcome is unknown.
type dieOnCall struct{ calls *atomic.Int32 }

func (s dieOnCall) Dispatch(string, *cdr.Decoder, *cdr.Encoder) error {
	return orb.Marshal(errors.New("the adapter did not say which connection"))
}

func (s dieOnCall) DispatchConn(conn *transport.Conn, op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if op == describeOp {
		encodeOpTable(out, []OpDesc{{Name: "who"}})
		return nil
	}
	s.calls.Add(1)
	conn.Close()
	return nil
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

// TestShardRoutingAmbiguousFailure: the primary fails after the request was
// written — it drops its connection, or it answers only after the client
// timeout — so the request may have run. Only a keyed idempotent invocation
// whose connection dropped reroutes to the successor and succeeds. Any other
// is not run again: every thread ends with the same COMM_FAILURE, byte for
// byte, and the successor never sees it. A timeout reroutes nothing, keyed or
// not, although sharing renders it as the COMM_FAILURE a dropped connection
// also is.
func TestShardRoutingAmbiguousFailure(t *testing.T) {
	for _, row := range []struct {
		name                    string
		slow, keyed, idempotent bool
	}{
		{"dies", false, true, false}, {"dies/idempotent", false, true, true},
		{"slow/keyless", true, false, false}, {"slow/idempotent", true, true, true},
	} {
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
			key := []byte("spmd/shard")
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
			ref := orb.IOR{TypeID: "IDL:shard:1.0", Key: key, Threads: 1, Endpoints: []orb.Endpoint{primary.Endpoint(0)},
				Alternates: [][]orb.Endpoint{{alive.Endpoint(0)}}}
			// A key the primary owns.
			ring := shard.New([]string{primary.Endpoint(0).Addr(), alive.Endpoint(0).Addr()}, 0)
			var shardKey []byte
			for i := 0; row.keyed && shardKey == nil; i++ {
				if k := []byte(fmt.Sprint("key-", i)); ring.Shard(k) == 0 {
					shardKey = k
				}
			}

			w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
			defer w.Close()
			outcomes := make([][]byte, 2)
			err = w.Run(func(c *rts.Comm) error {
				b, err := SPMDBindRef(c, ref, BindOptions{Timeout: 300 * time.Millisecond, Sharding: ShardingOptions{Idempotent: row.idempotent}})
				if err != nil {
					return err
				}
				defer b.Close()
				reply, err := b.invokeBlocking(Centralized, "who", shardKey, nil, nil, nil)
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
			rerun := row.idempotent && !row.slow
			failed, reran := !bytes.Equal(outcomes[0], []byte{0}), answered.Load() != 0
			if called.Load() != 1 || failed == rerun || reran != rerun {
				t.Errorf("the primary saw %d calls, its successor %d, the invocation failed: %v (%q)", called.Load(), answered.Load(), failed, outcomes[0])
			}
		})
	}
}

// TestShardRoutingCoreSpanAttribute: a shard-routed invocation's send/recv
// span carries the 1-based index of the serving shard; unrouted invocations
// carry 0.
func TestShardRoutingCoreSpanAttribute(t *testing.T) {
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	startShardGroup(t, ns, 2, 1)
	rec := obs.NewRecorder(64)

	w := rts.NewWorld(1, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	err = w.Run(func(c *rts.Comm) error {
		b, err := SPMDBind(c, "shardgrp", ns.Addr(), BindOptions{
			Method:   Centralized,
			Timeout:  testTimeout,
			Trace:    rec,
			Sharding: ShardingOptions{Idempotent: true},
		})
		if err != nil {
			return err
		}
		defer b.Close()
		if _, err := b.InvokeSharded("who", []byte("spankey"), nil, nil); err != nil {
			return err
		}
		if _, err := b.Invoke("who", nil, nil); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var sharded, unsharded []int32
	for _, sp := range rec.Spans() {
		if sp.Phase != obs.PhaseSendRecv {
			continue
		}
		if sp.Shard > 0 {
			sharded = append(sharded, sp.Shard)
		} else {
			unsharded = append(unsharded, sp.Shard)
		}
	}
	if len(sharded) != 1 {
		t.Fatalf("sharded send/recv spans: %v, want exactly one with Shard > 0", sharded)
	}
	if len(unsharded) == 0 {
		t.Fatal("plain invocation produced no send/recv span with Shard == 0")
	}
}
