package core

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// errorShape is everything about an error a caller can act on.
func errorShape(err error) string {
	if err == nil {
		return "nil"
	}
	kind, repo := "text", ""
	var ue *orb.UserException
	var se *orb.SystemException
	switch {
	case errors.As(err, &ue):
		kind, repo = "user", ue.RepoID
	case errors.As(err, &se):
		kind, repo = "system", se.RepoID
	}
	return fmt.Sprintf("%T %s %s stale=%v transient=%v: %v", err, kind, repo, naming.Stale(err), orb.IsTransient(err), err)
}

// sameOnEveryThread runs fn on every thread of a fresh n-thread world whose
// receive timeout is a minute — nothing here may wait for it — and returns the
// one error shape all threads ended with, failing t when they differ or when a
// thread took longer than a second to fail.
func sameOnEveryThread(t *testing.T, n int, fn func(c *rts.Comm) error) string {
	t.Helper()
	w := rts.NewWorld(n, rts.Options{RecvTimeout: time.Minute})
	defer w.Close()
	return sameOnEveryThreadOf(t, w, time.Second, fn)
}

// sameOnEveryThreadOf is sameOnEveryThread on a world the test keeps across
// calls, with the time a thread may take to end.
func sameOnEveryThreadOf(t *testing.T, w *rts.World, within time.Duration, fn func(c *rts.Comm) error) string {
	t.Helper()
	shapes, took := make([]string, w.Size()), make([]time.Duration, w.Size())
	_ = w.Run(func(c *rts.Comm) error {
		start := time.Now()
		shapes[c.Rank()] = errorShape(fn(c))
		took[c.Rank()] = time.Since(start)
		return nil
	})
	for r := range shapes {
		if shapes[r] != shapes[0] {
			t.Errorf("thread %d ended with\n  %s\nthread 0 with\n  %s", r, shapes[r], shapes[0])
		}
		if took[r] > within {
			t.Errorf("thread %d took %v to end", r, took[r])
		}
	}
	return shapes[0]
}

// TestExportFailureAgreed breaks set-up on one thread only and checks that it
// fails on all of them, at once and identically, leaving nothing behind.
func TestExportFailureAgreed(t *testing.T) {
	// Thread 1's adapter cannot come up: its metrics endpoint wants a port
	// that is taken.
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cases := []struct {
		name  string
		tweak func(rank int, o *ExportOptions)
		want  string
	}{
		{"unreachable name server", func(_ int, o *ExportOptions) { o.NameServer = "127.0.0.1:1" /* nothing listens there */ }, "system " + orb.RepoComm},
		{"listener of one thread", func(rank int, o *ExportOptions) {
			if rank == 1 {
				o.Server.MetricsAddr = taken.Addr().String()
			}
		}, "text"},
	}
	for _, s := range []int{2, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("s%d/%s", s, tc.name), func(t *testing.T) {
				defer testutil.LeakCheck(t)()
				ns, err := naming.NewServer("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ns.Close()
				shape := sameOnEveryThread(t, s, func(c *rts.Comm) error {
					opts := ExportOptions{TypeID: "IDL:diff_object:1.0", Multiport: true, Name: "example", NameServer: ns.Addr()}
					tc.tweak(c.Rank(), &opts)
					obj, err := Export(c, opts, testObjectOps(nil))
					if err == nil {
						obj.Close()
					}
					return err
				})
				if !strings.Contains(shape, tc.want) {
					t.Errorf("every thread ended with %s, want a %s error", shape, tc.want)
				}
			})
		}
	}
}

// TestExportCollectives pins set-up's skeleton: a gather of the endpoints and
// one share of the reference on the engine communicator, nothing else.
func TestExportCollectives(t *testing.T) {
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	err = w.Run(func(c *rts.Comm) error {
		obj, err := Export(c, ExportOptions{TypeID: "IDL:diff_object:1.0", Multiport: true, Name: "example", NameServer: ns.Addr()}, testObjectOps(nil))
		if err != nil {
			return err
		}
		defer obj.Close()
		if n := obj.Comm().Collectives(); n > 2 {
			return fmt.Errorf("thread %d: Export entered %d collectives on the engine communicator, want at most 2", c.Rank(), n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCleanAgreeAllocatesNothing: every invocation runs agreements on every
// thread, almost always clean, and a clean one costs no heap object on any
// thread: the root's gather lands in the communicator's own slice. Measured at
// two and four threads.
func TestCleanAgreeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurement with the race detector on")
	}
	const runs = 200
	for _, n := range []int{2, 4} {
		w := rts.NewWorld(n, rts.Options{RecvTimeout: testTimeout})
		var allocs float64
		err := w.Run(func(c *rts.Comm) error {
			var err error
			clean := func() {
				if _, e := agree(c, nil, okOutcome); e != nil && err == nil {
					err = e
				}
			}
			if c.Rank() == 0 {
				allocs = testing.AllocsPerRun(runs, clean)
			} else {
				for i := 0; i <= runs; i++ { // AllocsPerRun's warm-up call, then its runs
					clean()
				}
			}
			return err
		})
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%d threads: a clean agreement allocates %.0f objects, want none", n, allocs)
		}
	}
}

// TestBindFailureKeepsType fails a two-thread bind three ways at thread 0 —
// the only thread that talks to anyone — and checks that every thread returns
// the exception thread 0 met: same type, same repository id, same answer to
// the retry classifiers.
func TestBindFailureKeepsType(t *testing.T) {
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	// A reference to an object nobody serves, at an adapter that is alive.
	gone := orb.IOR{TypeID: "IDL:diff_object:1.0", Key: []byte("spmd/gone"), Threads: 2, Endpoints: ns.Ref().Endpoints}
	if err := ns.Registry.Bind("gone", gone, true); err != nil {
		t.Fatal(err)
	}
	// An adapter with one slot and no queue, its slot taken: it sheds the
	// describe with TRANSIENT.
	busy, err := orb.NewServerOpts("127.0.0.1:0", orb.ServerOptions{MaxInFlight: 1, QueueDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	release := make(chan struct{})
	defer close(release)
	busy.Register([]byte("spmd/busy"), orb.ServantFunc(func(string, *cdr.Decoder, *cdr.Encoder) error {
		<-release
		return nil
	}))
	busyRef := orb.IOR{TypeID: "IDL:diff_object:1.0", Key: []byte("spmd/busy"), Threads: 2, Endpoints: []orb.Endpoint{busy.Endpoint(0)}}
	holder := orb.NewClient()
	defer holder.Close()
	go func() { _, _ = holder.Invoke(busyRef, "hold", orb.NewArgEncoder().Bytes(), false) }()
	testutil.Eventually(t, testTimeout, "the busy adapter's slot was never taken", func() bool { return busy.Stats().InFlight == 1 })

	opts := BindOptions{Timeout: testTimeout}
	for _, tc := range []struct {
		name string
		bind func(c *rts.Comm) (*Binding, error)
		want string
	}{
		{"unbound name", func(c *rts.Comm) (*Binding, error) { return SPMDBind(c, "ghost", ns.Addr(), opts) },
			"user " + naming.RepoNotFound + " stale=false transient=false"},
		{"object gone", func(c *rts.Comm) (*Binding, error) { return SPMDBind(c, "gone", ns.Addr(), opts) },
			"system " + orb.RepoObjectNotExist + " stale=true transient=false"},
		{"shed at describe", func(c *rts.Comm) (*Binding, error) { return SPMDBindRef(c, busyRef, opts) },
			"system " + orb.RepoTransient + " stale=false transient=true"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shape := sameOnEveryThread(t, 2, func(c *rts.Comm) error {
				b, err := tc.bind(c)
				if err == nil {
					b.Close()
				}
				return err
			})
			if !strings.Contains(shape, tc.want) {
				t.Errorf("every thread ended with %s, want %s", shape, tc.want)
			}
		})
	}
}

// TestRefusedInvocationReleasesFrames refuses the header of invocations whose
// data is sent regardless — the communicating thread answers before, while or
// after the chunks and moves arrive, on every server thread they were sent to
// — and checks the bucket life rule: nothing the refused calls brought
// outlives DataTimeout, in the table or out of the frame pool, and neither
// does a frame that arrives for a call long over.
func TestRefusedInvocationReleasesFrames(t *testing.T) {
	const dataTimeout = 100 * time.Millisecond
	refusals := []struct {
		name string
		// held: the first upcall on thread 0 waits until gate is closed.
		held bool
		// refuse makes thread 0 refuse headers until the returned func is called.
		refuse func(t *testing.T, tc *testCluster, objs []*Object, gate chan struct{}) (restore func())
		tamper func(b *Binding)
	}{
		{name: "stale epoch", tamper: func(b *Binding) { b.refEpoch = 99 }},
		{name: "draining", refuse: func(_ *testing.T, _ *testCluster, objs []*Object, _ chan struct{}) func() {
			objs[0].draining.Store(true)
			return func() { objs[0].draining.Store(false) }
		}},
		{name: "full queue", held: true, refuse: func(t *testing.T, tc *testCluster, objs []*Object, gate chan struct{}) func() {
			// One call held in its upcall, one waiting in the queue of one.
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := tc.smallPut(); err != nil {
						t.Error(err)
					}
				}()
				if i == 0 {
					testutil.Eventually(t, testTimeout, "the first call never reached its upcall", func() bool { return len(gate) == 0 })
				}
			}
			testutil.Eventually(t, testTimeout, "the second call never queued", func() bool { return len(objs[0].queue) == 1 })
			return func() { close(gate); wg.Wait() }
		}},
	}
	shapes := []struct {
		name   string
		method Method
		elems  int
	}{{"chunked", Centralized, 64 * shapeChunk}, {"direct", Multiport, 16 * shapeChunk}}

	for _, rf := range refusals {
		for _, sh := range shapes {
			t.Run(rf.name+"/"+sh.name, func(t *testing.T) {
				defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
				// gate holds one token when upcalls are held: the first one
				// takes it and waits for the close; once closed, nothing waits.
				gate := make(chan struct{}, 1)
				if rf.held {
					gate <- struct{}{}
				} else {
					close(gate)
				}
				tc := startClusterOps(t, 2, true, func() []Operation {
					return shapeOps(func(call *ServerCall) {
						if call.Comm.Rank() == 0 {
							<-gate
							<-gate
						}
					})
				}, func(o *ExportOptions) { o.DataTimeout, o.queueDepth = dataTimeout, 1 })
				var objs []*Object
				testutil.Eventually(t, testTimeout, "the server threads never came up", func() bool {
					tc.objMu.Lock()
					defer tc.objMu.Unlock()
					objs = append(objs[:0], tc.objects...)
					return objs[0] != nil && objs[1] != nil
				})
				buckets := func() (n int) {
					for _, o := range objs {
						o.bucketMu.Lock()
						n += len(o.buckets)
						o.bucketMu.Unlock()
					}
					return n
				}
				restore := func() {}
				if rf.refuse != nil {
					restore = rf.refuse(t, tc, objs, gate)
				}
				opts := BindOptions{Method: sh.method, Timeout: testTimeout, streamChunkElems: shapeChunk}
				tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
					if rf.tamper != nil {
						rf.tamper(b)
					}
					for i := 0; i < 3; i++ {
						if err := put(c, b, sh.method, sh.elems); err == nil {
							return errors.New("a refused invocation succeeded")
						}
					}
					return nil
				})
				restore()

				// Past DataTimeout, the next serving round's sweep finds
				// whatever the refused calls left.
				time.Sleep(dataTimeout + dataTimeout/2)
				if err := tc.smallPut(); err != nil {
					t.Fatal(err)
				}
				testutil.Eventually(t, testTimeout, "buckets of refused invocations outlived DataTimeout", func() bool { return buckets() == 0 })

				// A frame no call will claim opens a fresh bucket, which goes
				// the same way. Its token is new, not the last call's: a
				// thread still leaving that call drops the token's bucket on
				// its way out, and the frame could vanish before it is seen.
				cli := orb.NewClient()
				defer cli.Close()
				late := &wire.Data{RequestID: tokenCounter.Add(1), DstRank: 1, Count: 4,
					Payload: dseq.MarshalChunk(dseq.Float64, make([]float64, 4))}
				if err := sendData(cli, objs[0].Ref(), late); err != nil {
					t.Fatal(err)
				}
				testutil.Eventually(t, testTimeout, "the late frame never arrived", func() bool { return buckets() == 1 })
				time.Sleep(dataTimeout + dataTimeout/2)
				if err := tc.smallPut(); err != nil {
					t.Fatal(err)
				}
				testutil.Eventually(t, testTimeout, "the late frame's bucket outlived DataTimeout", func() bool { return buckets() == 0 })
			})
		}
	}
}

// smallPut makes one inline call from a fresh two-thread client: a serving
// round on every server thread that moves no Data frame.
func (tc *testCluster) smallPut() error {
	w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	return w.Run(func(c *rts.Comm) error {
		b, err := SPMDBind(c, "example", tc.ns.Addr(), BindOptions{Timeout: testTimeout})
		if err != nil {
			return err
		}
		defer b.Close()
		return put(c, b, Centralized, 8)
	})
}

// put invokes shapeOps' "put" with an n-element argument.
func put(c *rts.Comm, b *Binding, method Method, n int) error {
	arr, err := dseq.New(c, dseq.Float64, n, nil)
	if err != nil {
		return err
	}
	_, err = b.InvokeMethod(method, "put", ScalarEncoder().Bytes(), []DistArg{InSeq(arr)}, nil)
	return err
}
