package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/testutil"
)

// The elastic harness: one Block-distributed double state of elasticLen
// elements seeded g+1, so its sum is the exact integer
// elasticLen*(elasticLen+1)/2 at any membership — the conservation invariant
// every test asserts.
const elasticLen = 96
const elasticSum = float64(elasticLen * (elasticLen + 1) / 2)

// elasticOps exposes the state: esum (idempotent collective reduction),
// eget (Out-arg copy of the full state, for multiset conservation checks)
// and ebump (adds a scalar to every element, to prove mutations survive
// resizes).
func elasticOps(es *EpochState) []Operation {
	data := es.Seq("data").(*dseq.Seq[float64])
	sumDesc := OpDesc{Name: "esum"}
	getDesc := OpDesc{Name: "eget", Args: []ArgDesc{{Name: "arr", Dir: Out, Elem: "double"}}}
	bumpDesc := OpDesc{Name: "ebump"}
	return []Operation{
		{
			Desc:    sumDesc,
			NewArgs: SeqArgsFloat64(sumDesc.Args),
			Handler: func(call *ServerCall) error {
				local := 0.0
				for _, v := range data.LocalData() {
					local += v
				}
				total, err := call.Comm.Allreduce(rts.Float64sToBytes([]float64{local}), rts.SumFloat64)
				if err != nil {
					return err
				}
				vals, err := rts.BytesToFloat64s(total)
				if err != nil {
					return err
				}
				call.Out.WriteDouble(vals[0])
				return nil
			},
		},
		{
			Desc:    getDesc,
			NewArgs: SeqArgsFloat64(getDesc.Args),
			Handler: func(call *ServerCall) error {
				out := ArgSeq[float64](call, 0)
				if err := out.ResizeAlloc(data.Len()); err != nil {
					return err
				}
				// Same length, spec and communicator: identical layouts, so
				// the local windows line up.
				copy(out.LocalData(), data.LocalData())
				return nil
			},
		},
		{
			Desc:    bumpDesc,
			NewArgs: SeqArgsFloat64(bumpDesc.Args),
			Handler: func(call *ServerCall) error {
				delta, err := call.In.ReadDouble()
				if err != nil {
					return orb.Marshal(err)
				}
				local := data.LocalData()
				for i := range local {
					local[i] += delta
				}
				return nil
			},
		},
	}
}

// startElastic exports an elastic object named "elastic" behind a fresh name
// server. Cleanup closes both (both are idempotent, so tests that need the
// engine down before a leak check may close it themselves first).
func startElastic(t *testing.T, size int, tweak ...func(*ElasticOptions)) (*Elastic, *naming.Server) {
	t.Helper()
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := ElasticOptions{
		Export: ExportOptions{
			TypeID:      "IDL:elastic_object:1.0",
			Name:        "elastic",
			NameServer:  ns.Addr(),
			DataTimeout: testTimeout,
		},
		World: rts.Options{RecvTimeout: testTimeout},
		State: []StateDesc{Float64State("data", elasticLen, func(g int) float64 { return float64(g + 1) })},
		Ops:   elasticOps,
	}
	for _, f := range tweak {
		f(&opts)
	}
	el, err := NewElastic(opts, size)
	if err != nil {
		ns.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		el.Close()
		ns.Close()
	})
	return el, ns
}

// retryableDuringResize classifies the only failures a well-behaved client
// may observe across a membership change: stale bindings (re-resolve) and
// transient shedding (retry).
func retryableDuringResize(err error) bool {
	return naming.Stale(err) || orb.IsTransient(err)
}

// elasticInvoke runs one client invocation with rebind-and-retry until
// deadline: the contract under test is that an idempotent operation never
// fails for a cause a Rebinder-style client cannot absorb.
func elasticInvoke(c *rts.Comm, nsAddr, op string, scalars []byte, args []DistArg) ([]byte, error) {
	deadline := time.Now().Add(testTimeout)
	var lastErr error
	for time.Now().Before(deadline) {
		b, err := SPMDBind(c, "elastic", nsAddr, BindOptions{Timeout: testTimeout})
		if err != nil {
			if retryableDuringResize(err) {
				lastErr = err
				time.Sleep(2 * time.Millisecond)
				continue
			}
			return nil, err
		}
		reply, err := b.Invoke(op, scalars, args)
		b.Close()
		if err == nil {
			return reply, nil
		}
		if !retryableDuringResize(err) {
			return nil, err
		}
		lastErr = err
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("retries exhausted: %w", lastErr)
}

// elasticSumOnce reads the state total through a fresh single-rank client.
func elasticSumOnce(t *testing.T, nsAddr string) float64 {
	t.Helper()
	var total float64
	w := rts.NewWorld(1, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	err := w.Run(func(c *rts.Comm) error {
		reply, err := elasticInvoke(c, nsAddr, "esum", nil, nil)
		if err != nil {
			return err
		}
		d, err := ScalarDecoder(reply)
		if err != nil {
			return err
		}
		total, err = d.ReadDouble()
		return err
	})
	if err != nil {
		t.Fatalf("esum: %v", err)
	}
	return total
}

// elasticGetOnce copies the full state out through a fresh single-rank
// client (one rank, so the local window is the whole sequence).
func elasticGetOnce(t *testing.T, nsAddr string) []float64 {
	t.Helper()
	var vals []float64
	w := rts.NewWorld(1, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	err := w.Run(func(c *rts.Comm) error {
		arr, err := dseq.New(c, dseq.Float64, 0, nil)
		if err != nil {
			return err
		}
		if _, err := elasticInvoke(c, nsAddr, "eget", nil, []DistArg{OutSeq(arr)}); err != nil {
			return err
		}
		vals = append([]float64(nil), arr.LocalData()...)
		return nil
	})
	if err != nil {
		t.Fatalf("eget: %v", err)
	}
	return vals
}

func TestElasticResizeGrowShrink(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	el, ns := startElastic(t, 2, func(o *ElasticOptions) {
		o.Metrics = reg
		o.Export.Multiport = true
		o.Export.Compression = ^uint8(0) // exercise compressed state transfer
	})
	if el.Epoch() != 1 || el.Size() != 2 {
		t.Fatalf("fresh engine at epoch %d size %d", el.Epoch(), el.Size())
	}
	if got := elasticSumOnce(t, ns.Addr()); got != elasticSum {
		t.Fatalf("initial sum %v, want %v", got, elasticSum)
	}

	// Grow. The repartitioned state must sum identically.
	if err := el.Resize(5); err != nil {
		t.Fatal(err)
	}
	if el.Epoch() != 2 || el.Size() != 5 {
		t.Fatalf("after grow: epoch %d size %d", el.Epoch(), el.Size())
	}
	if got := elasticSumOnce(t, ns.Addr()); got != elasticSum {
		t.Fatalf("sum after grow %v, want %v", got, elasticSum)
	}

	// Mutate, then shrink: the mutation must survive the move.
	e := ScalarEncoder()
	e.WriteDouble(10)
	w := rts.NewWorld(1, rts.Options{RecvTimeout: testTimeout})
	err := w.Run(func(c *rts.Comm) error {
		_, err := elasticInvoke(c, ns.Addr(), "ebump", e.Bytes(), nil)
		return err
	})
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := el.Resize(1); err != nil {
		t.Fatal(err)
	}
	if el.Epoch() != 3 || el.Size() != 1 {
		t.Fatalf("after shrink: epoch %d size %d", el.Epoch(), el.Size())
	}
	wantSum := elasticSum + 10*elasticLen
	if got := elasticSumOnce(t, ns.Addr()); got != wantSum {
		t.Fatalf("sum after shrink %v, want %v", got, wantSum)
	}
	want := make([]float64, elasticLen)
	for i := range want {
		want[i] = float64(i+1) + 10
	}
	if err := testutil.Conserved(want, elasticGetOnce(t, ns.Addr())); err != nil {
		t.Fatal(err)
	}

	// Resize to the current size is a no-op.
	if err := el.Resize(1); err != nil {
		t.Fatal(err)
	}
	if el.Epoch() != 3 {
		t.Fatalf("no-op resize advanced the epoch to %d", el.Epoch())
	}

	if v := reg.Counter("core.resize.total").Value(); v != 2 {
		t.Errorf("core.resize.total = %d, want 2", v)
	}
	if v := reg.Counter("core.resize.aborted").Value(); v != 0 {
		t.Errorf("core.resize.aborted = %d, want 0", v)
	}
	// What 2 → 5 → 1 threads moves of this state, as counted before the
	// snapshot ran the one chunk schedule: the schedule must cut the same steps.
	if elems, chunks := reg.Counter("core.resize.moved_elems").Value(), reg.Counter("core.resize.moved_chunks").Value(); elems != 152 || chunks != 11 {
		t.Errorf("core.resize.moved_elems = %d in core.resize.moved_chunks = %d, want 152 in 11", elems, chunks)
	}
	if v := reg.Gauge("core.resize.epoch").Value(); v != 3 {
		t.Errorf("core.resize.epoch = %d, want 3", v)
	}
	if v := reg.Gauge("core.resize.ranks").Value(); v != 1 {
		t.Errorf("core.resize.ranks = %d, want 1", v)
	}
	if v := reg.Histogram("core.resize.duration_ns").Count(); v != 2 {
		t.Errorf("core.resize.duration_ns count = %d, want 2", v)
	}
}

// TestElasticResizeFinePlan resizes an object whose state is Cyclic{1} —
// 20 000 elements, every one a move of its own between two memberships —
// 2 → 3 → 2 threads, its steps compressed: the contents come back exact and
// the sum conserved, and the snapshot cuts every flow of Diff's lists into
// ⌈elements / chunk⌉ chunks, where it took one chunk per move before a step
// packed a thread pair's moves.
func TestElasticResizeFinePlan(t *testing.T) {
	t.Parallel()
	const n = 20000
	cyclic := dist.Cyclic{BlockSize: 1}
	reg := obs.NewRegistry()
	el, ns := startElastic(t, 2, func(o *ElasticOptions) {
		o.Metrics = reg
		o.Export.Compression = ^uint8(0)
		o.State = []StateDesc{Float64State("data", n, func(g int) float64 { return float64(g + 1) })}
		o.State[0].Spec = cyclic
		o.Ops = func(es *EpochState) []Operation {
			// eget copies the state's local window: its result shares the
			// state's layout.
			ops := elasticOps(es)
			ops[1].Desc.Args[0].Spec = cyclic
			ops[1].NewArgs = SeqArgsFloat64(ops[1].Desc.Args)
			return ops
		}
	})
	wantElems, wantChunks := 0, 0
	for _, sizes := range [][2]int{{2, 3}, {3, 2}} {
		if err := el.Resize(sizes[1]); err != nil {
			t.Fatal(err)
		}
		if got := elasticSumOnce(t, ns.Addr()); got != n*(n+1)/2 {
			t.Fatalf("sum after %d → %d threads: %v, want %d", sizes[0], sizes[1], got, n*(n+1)/2)
		}
		for g, v := range elasticGetOnce(t, ns.Addr()) {
			if v != float64(g+1) {
				t.Fatalf("after %d → %d threads element %d is %v, want %d", sizes[0], sizes[1], g, v, g+1)
			}
		}
		flows := map[[2]int]int{}
		for g := 0; g < n; g++ {
			flows[[2]int{g % sizes[0], g % sizes[1]}]++
		}
		for pair, elems := range flows {
			if wantChunks += dist.ChunkCount(elems, DefaultStreamChunkElems); pair[0] != pair[1] {
				wantElems += elems
			}
		}
	}
	if elems, chunks := reg.Counter("core.resize.moved_elems").Value(), reg.Counter("core.resize.moved_chunks").Value(); elems != uint64(wantElems) || chunks != uint64(wantChunks) {
		t.Errorf("core.resize.moved_elems = %d in core.resize.moved_chunks = %d, want %d in %d", elems, chunks, wantElems, wantChunks)
	}
}

func TestElasticAdminResize(t *testing.T) {
	t.Parallel()
	el, ns := startElastic(t, 1, func(o *ElasticOptions) { o.Export.Server.AdminResize = true })
	cli := orb.NewClient()
	cli.Timeout = testTimeout
	defer cli.Close()
	res := naming.NewResolver(cli, ns.Addr())
	ref, err := res.Resolve("elastic", "")
	if err != nil {
		t.Fatal(err)
	}

	e := ScalarEncoder()
	e.WriteLong(3)
	reply, err := cli.Invoke(ref, resizeOp, e.Bytes(), false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ScalarDecoder(reply)
	if err != nil {
		t.Fatal(err)
	}
	if ep, err := d.ReadLong(); err != nil || ep != 1 {
		t.Fatalf("admin resize acknowledged epoch %d (%v), want 1", ep, err)
	}
	testutil.Eventually(t, testTimeout, "admin resize applied", func() bool {
		return el.Epoch() == 2 && el.Size() == 3
	})

	// Out-of-range targets are refused without touching membership.
	e = ScalarEncoder()
	e.WriteLong(0)
	ref2, err := res.Resolve("elastic", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Invoke(ref2, resizeOp, e.Bytes(), false); err == nil {
		t.Fatal("admin resize to 0 threads succeeded")
	}
	if el.Epoch() != 2 || el.Size() != 3 {
		t.Fatalf("refused resize changed membership: epoch %d size %d", el.Epoch(), el.Size())
	}
}

func TestElasticAdminResizeDisabled(t *testing.T) {
	t.Parallel()
	el, ns := startElastic(t, 1) // AdminResize off (the default)
	cli := orb.NewClient()
	cli.Timeout = testTimeout
	defer cli.Close()
	ref, err := naming.NewResolver(cli, ns.Addr()).Resolve("elastic", "")
	if err != nil {
		t.Fatal(err)
	}
	e := ScalarEncoder()
	e.WriteLong(2)
	_, err = cli.Invoke(ref, resizeOp, e.Bytes(), false)
	var sys *orb.SystemException
	if !errors.As(err, &sys) || sys.RepoID != orb.RepoBadOperation {
		t.Fatalf("disabled admin resize: %v, want BAD_OPERATION", err)
	}
	if el.Epoch() != 1 {
		t.Fatalf("disabled admin resize advanced the epoch to %d", el.Epoch())
	}
}

func TestElasticEpochMismatchRefusedStale(t *testing.T) {
	t.Parallel()
	el, ns := startElastic(t, 2)
	w := rts.NewWorld(1, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	err := w.Run(func(c *rts.Comm) error {
		ref := el.Ref()
		ref.Epoch = 99 // a binding from a resize the server never saw
		b, err := SPMDBindRef(c, ref, BindOptions{Timeout: testTimeout})
		if err != nil {
			return fmt.Errorf("bind: %w", err) // describe carries no epoch tag
		}
		defer b.Close()
		_, err = b.Invoke("esum", nil, nil)
		if err == nil {
			return errors.New("wrong-epoch invocation succeeded")
		}
		var sys *orb.SystemException
		if !errors.As(err, &sys) || sys.RepoID != orb.RepoObjectNotExist {
			return fmt.Errorf("wrong-epoch refusal = %v, want OBJECT_NOT_EXIST", err)
		}
		if !naming.Stale(err) {
			return fmt.Errorf("wrong-epoch refusal %v is not Stale (no re-resolve)", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = ns
}

// TestElasticEpochZeroReferenceRebinds pins that the epoch check has no
// exemption: a reference to a resized object that carries epoch 0 (the value
// of a conventional object's reference) is refused like any other wrong
// epoch, re-resolvably, and one rebind through naming lands on the live epoch.
func TestElasticEpochZeroReferenceRebinds(t *testing.T) {
	t.Parallel()
	el, ns := startElastic(t, 2)
	if err := el.Resize(3); err != nil {
		t.Fatal(err)
	}
	w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	err := w.Run(func(c *rts.Comm) error {
		ref := el.Ref()
		ref.Epoch = 0
		b, err := SPMDBindRef(c, ref, BindOptions{Timeout: testTimeout})
		if err != nil {
			return fmt.Errorf("bind: %w", err) // describe carries no epoch
		}
		_, err = b.Invoke("esum", nil, nil)
		b.Close()
		var sys *orb.SystemException
		if !errors.As(err, &sys) || sys.RepoID != orb.RepoObjectNotExist || !naming.Stale(err) {
			return fmt.Errorf("epoch-0 invocation on a resized object = %v, want a stale OBJECT_NOT_EXIST", err)
		}
		nb, err := SPMDBind(c, "elastic", ns.Addr(), BindOptions{Timeout: testTimeout})
		if err != nil {
			return fmt.Errorf("rebind: %w", err)
		}
		defer nb.Close()
		reply, err := nb.Invoke("esum", nil, nil)
		if err != nil {
			return fmt.Errorf("first invocation after rebind: %w", err)
		}
		d, err := ScalarDecoder(reply)
		if err != nil {
			return err
		}
		if total, err := d.ReadDouble(); err != nil || total != elasticSum {
			return fmt.Errorf("sum = %v (%v), want %v", total, err, elasticSum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestElasticStaleBindingRebinds is the client-visible resize contract: a
// binding from the old epoch fails its next invocation with a stale
// (re-resolvable) error, and one rebind lands on the new epoch.
func TestElasticStaleBindingRebinds(t *testing.T) {
	t.Parallel()
	el, ns := startElastic(t, 2)
	w := rts.NewWorld(1, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	err := w.Run(func(c *rts.Comm) error {
		b, err := SPMDBind(c, "elastic", ns.Addr(), BindOptions{Timeout: testTimeout})
		if err != nil {
			return err
		}
		if _, err := b.Invoke("esum", nil, nil); err != nil {
			b.Close()
			return fmt.Errorf("pre-resize: %w", err)
		}
		if err := el.Resize(3); err != nil {
			b.Close()
			return err
		}
		_, err = b.Invoke("esum", nil, nil)
		b.Close()
		if err == nil {
			return errors.New("stale binding kept working after the resize")
		}
		if !naming.Stale(err) && !orb.IsTransient(err) {
			return fmt.Errorf("stale binding failed non-retryably: %v", err)
		}
		// Exactly one re-resolve recovers.
		nb, err := SPMDBind(c, "elastic", ns.Addr(), BindOptions{Timeout: testTimeout})
		if err != nil {
			return fmt.Errorf("rebind: %w", err)
		}
		defer nb.Close()
		reply, err := nb.Invoke("esum", nil, nil)
		if err != nil {
			return fmt.Errorf("first invocation after rebind: %w", err)
		}
		d, err := ScalarDecoder(reply)
		if err != nil {
			return err
		}
		if total, err := d.ReadDouble(); err != nil || total != elasticSum {
			return fmt.Errorf("sum = %v (%v), want %v", total, err, elasticSum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestObjectResizeNonElastic(t *testing.T) {
	t.Parallel()
	tc := startCluster(t, 1, false, nil)
	tc.objMu.Lock()
	o := tc.objects[0]
	tc.objMu.Unlock()
	if err := o.Resize(2); !errors.Is(err, ErrNotElastic) {
		t.Fatalf("Resize on a conventional export: %v, want ErrNotElastic", err)
	}
}
