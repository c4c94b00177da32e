package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rts"
)

const testTimeout = 20 * time.Second

// testObjectOps builds the operation table used across the tests: a
// diffusion-style mix of scalar and distributed arguments.
func testObjectOps(argSpec dist.Spec) []Operation {
	scaleDesc := OpDesc{Name: "scale", Args: []ArgDesc{{Name: "arr", Dir: InOut, Elem: "double", Spec: argSpec}}}
	sumDesc := OpDesc{Name: "sum", Args: []ArgDesc{{Name: "arr", Dir: In, Elem: "double", Spec: argSpec}}}
	iotaDesc := OpDesc{Name: "iota", Args: []ArgDesc{{Name: "arr", Dir: Out, Elem: "double", Spec: argSpec}}}
	axpyDesc := OpDesc{Name: "axpy", Args: []ArgDesc{
		{Name: "x", Dir: In, Elem: "double", Spec: argSpec},
		{Name: "y", Dir: InOut, Elem: "double", Spec: argSpec},
	}}
	return []Operation{
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
				call.Out.WriteLong(int32(arr.Len()))
				return nil
			},
		},
		{
			Desc:    sumDesc,
			NewArgs: SeqArgsFloat64(sumDesc.Args),
			Handler: func(call *ServerCall) error {
				arr := ArgSeq[float64](call, 0)
				local := 0.0
				for _, v := range arr.LocalData() {
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
			Desc:    iotaDesc,
			NewArgs: SeqArgsFloat64(iotaDesc.Args),
			Handler: func(call *ServerCall) error {
				n, err := call.In.ReadLong()
				if err != nil {
					return orb.Marshal(err)
				}
				arr := ArgSeq[float64](call, 0)
				if err := arr.ResizeAlloc(int(n)); err != nil {
					return err
				}
				arr.FillFunc(func(g int) float64 { return float64(g) + 0.5 })
				return nil
			},
		},
		{
			Desc:    axpyDesc,
			NewArgs: SeqArgsFloat64(axpyDesc.Args),
			Handler: func(call *ServerCall) error {
				a, err := call.In.ReadDouble()
				if err != nil {
					return orb.Marshal(err)
				}
				x := ArgSeq[float64](call, 0)
				y := ArgSeq[float64](call, 1)
				xv, yv := x.LocalData(), y.LocalData()
				if len(xv) != len(yv) {
					return fmt.Errorf("mismatched local lengths %d/%d", len(xv), len(yv))
				}
				for i := range yv {
					yv[i] += a * xv[i]
				}
				return nil
			},
		},
		{
			Desc: OpDesc{Name: "boom"},
			NewArgs: func(*rts.Comm, []int) ([]dseq.Transferable, error) {
				return nil, nil
			},
			Handler: func(call *ServerCall) error {
				return &orb.UserException{RepoID: "IDL:test/Kaboom:1.0", Message: "requested failure"}
			},
		},
	}
}

// testCluster wires a name server, an SPMD server world running Serve, and
// leaves the client side to the test body.
type testCluster struct {
	ns        *naming.Server
	serverW   *rts.World
	objMu     sync.Mutex
	objects   []*Object
	serverErr chan error
	// served is, per computing thread, what its engine communicator's
	// Collectives() read when Serve returned (under objMu; -1 until then). After
	// an orderly stop the readings must agree: a thread that left an invocation
	// a collective ahead of the others stays ahead to the end.
	served []int
}

func startCluster(t *testing.T, sRanks int, multiport bool, argSpec dist.Spec, tweak ...func(*ExportOptions)) *testCluster {
	t.Helper()
	return startClusterOps(t, sRanks, multiport, func() []Operation { return testObjectOps(argSpec) }, tweak...)
}

// startClusterOps is startCluster for a test that brings its own operation
// table (built once per computing thread).
func startClusterOps(t *testing.T, sRanks int, multiport bool, ops func() []Operation, tweak ...func(*ExportOptions)) *testCluster {
	t.Helper()
	return startClusterWorld(t, rts.NewWorld(sRanks, rts.Options{RecvTimeout: testTimeout}), multiport, ops, tweak...)
}

// startClusterWorld is startClusterOps on a server world of the test's making:
// one without a receive timeout — what every example runs on — never leaves a
// collective a peer skipped, where the default's timeout ends the wait, and
// hides the defect, after testTimeout.
func startClusterWorld(t *testing.T, serverW *rts.World, multiport bool, ops func() []Operation, tweak ...func(*ExportOptions)) *testCluster {
	t.Helper()
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sRanks := serverW.Size()
	tc := &testCluster{
		ns:        ns,
		serverW:   serverW,
		objects:   make([]*Object, sRanks),
		serverErr: make(chan error, 1),
		served:    make([]int, sRanks),
	}
	for r := range tc.served {
		tc.served[r] = -1
	}
	ready := make(chan struct{})
	var once sync.Once
	stored := 0 // under objMu
	go func() {
		tc.serverErr <- tc.serverW.Run(func(c *rts.Comm) error {
			opts := ExportOptions{
				TypeID:     "IDL:diff_object:1.0",
				Multiport:  multiport,
				Name:       "example",
				NameServer: ns.Addr(),
			}
			for _, f := range tweak {
				f(&opts)
			}
			obj, err := Export(c, opts, ops())
			if err != nil {
				once.Do(func() { close(ready) })
				return err
			}
			// Ready is every thread's object in the table: a test that ends
			// before a slow thread stored its own would never close it.
			tc.objMu.Lock()
			tc.objects[c.Rank()] = obj
			stored++
			all := stored == sRanks
			tc.objMu.Unlock()
			if all {
				once.Do(func() { close(ready) })
			}
			err = obj.Serve()
			tc.objMu.Lock()
			tc.served[c.Rank()] = obj.Comm().Collectives()
			tc.objMu.Unlock()
			return err
		})
	}()
	select {
	case <-ready:
	case <-time.After(testTimeout):
		t.Fatal("server never became ready")
	}
	t.Cleanup(func() {
		tc.objMu.Lock()
		objs := append([]*Object(nil), tc.objects...)
		tc.objMu.Unlock()
		for _, o := range objs {
			if o != nil {
				o.Close()
			}
		}
		select {
		case err := <-tc.serverErr:
			if err != nil && !errors.Is(err, ErrStopped) {
				t.Errorf("server world: %v", err)
			}
			tc.objMu.Lock()
			for r, n := range tc.served {
				if err == nil && n != tc.served[0] {
					t.Errorf("server thread %d left Serve after %d collectives on the engine communicator, thread 0 after %d: an invocation left the skeleton misaligned",
						r, n, tc.served[0])
				}
			}
			tc.objMu.Unlock()
		case <-time.After(testTimeout):
			t.Error("server world did not shut down")
		}
		tc.serverW.Close()
		ns.Close()
	})
	return tc
}

// runClient executes fn on a fresh client world bound to the cluster's
// object.
func (tc *testCluster) runClient(t *testing.T, cRanks int, method Method, fn func(c *rts.Comm, b *Binding) error) {
	t.Helper()
	tc.runClientOpts(t, cRanks, BindOptions{Method: method, Timeout: testTimeout}, fn)
}

func scaleScalars(factor int32) []byte {
	e := ScalarEncoder()
	e.WriteLong(factor)
	return e.Bytes()
}

func TestInvokeInOutBothMethods(t *testing.T) {
	for _, method := range []Method{Centralized, Multiport} {
		method := method
		for _, cfg := range []struct{ c, s int }{{1, 1}, {2, 1}, {1, 3}, {2, 4}, {4, 2}, {3, 5}} {
			cfg := cfg
			t.Run(fmt.Sprintf("%v/c%d-s%d", method, cfg.c, cfg.s), func(t *testing.T) {
				t.Parallel()
				tc := startCluster(t, cfg.s, true, nil)
				tc.runClient(t, cfg.c, method, func(c *rts.Comm, b *Binding) error {
					const n = 1000
					arr, err := dseq.New(c, dseq.Float64, n, nil)
					if err != nil {
						return err
					}
					arr.FillFunc(func(g int) float64 { return float64(g) })
					reply, err := b.Invoke("scale", scaleScalars(3), []DistArg{InOutSeq(arr)})
					if err != nil {
						return err
					}
					d, err := ScalarDecoder(reply)
					if err != nil {
						return err
					}
					ln, err := d.ReadLong()
					if err != nil || ln != n {
						return fmt.Errorf("reply length %d, %v", ln, err)
					}
					full, err := arr.Collect()
					if err != nil {
						return err
					}
					for i, v := range full {
						if v != float64(i)*3 {
							return fmt.Errorf("full[%d] = %v, want %v", i, v, float64(i)*3)
						}
					}
					return nil
				})
			})
		}
	}
}

func TestInvokeInOnly(t *testing.T) {
	for _, method := range []Method{Centralized, Multiport} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			t.Parallel()
			tc := startCluster(t, 3, true, nil)
			tc.runClient(t, 2, method, func(c *rts.Comm, b *Binding) error {
				const n = 777
				arr, err := dseq.New(c, dseq.Float64, n, nil)
				if err != nil {
					return err
				}
				arr.FillFunc(func(g int) float64 { return 1 })
				reply, err := b.Invoke("sum", ScalarEncoder().Bytes(), []DistArg{InSeq(arr)})
				if err != nil {
					return err
				}
				d, err := ScalarDecoder(reply)
				if err != nil {
					return err
				}
				total, err := d.ReadDouble()
				if err != nil || total != n {
					return fmt.Errorf("sum = %v, %v", total, err)
				}
				return nil
			})
		})
	}
}

func TestInvokeOutArg(t *testing.T) {
	for _, method := range []Method{Centralized, Multiport} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			t.Parallel()
			tc := startCluster(t, 4, true, nil)
			tc.runClient(t, 3, method, func(c *rts.Comm, b *Binding) error {
				arr, err := dseq.New(c, dseq.Float64, 0, nil)
				if err != nil {
					return err
				}
				e := ScalarEncoder()
				e.WriteLong(321)
				if _, err := b.Invoke("iota", e.Bytes(), []DistArg{OutSeq(arr)}); err != nil {
					return err
				}
				if arr.Len() != 321 {
					return fmt.Errorf("out length %d", arr.Len())
				}
				full, err := arr.Collect()
				if err != nil {
					return err
				}
				for i, v := range full {
					if v != float64(i)+0.5 {
						return fmt.Errorf("full[%d] = %v", i, v)
					}
				}
				return nil
			})
		})
	}
}

func TestInvokeTwoDistArgs(t *testing.T) {
	for _, method := range []Method{Centralized, Multiport} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			t.Parallel()
			tc := startCluster(t, 2, true, nil)
			tc.runClient(t, 4, method, func(c *rts.Comm, b *Binding) error {
				const n = 640
				x, err := dseq.New(c, dseq.Float64, n, nil)
				if err != nil {
					return err
				}
				y, err := dseq.New(c, dseq.Float64, n, nil)
				if err != nil {
					return err
				}
				x.FillFunc(func(g int) float64 { return float64(g) })
				y.FillFunc(func(g int) float64 { return 100 })
				e := ScalarEncoder()
				e.WriteDouble(2)
				if _, err := b.Invoke("axpy", e.Bytes(), []DistArg{InSeq(x), InOutSeq(y)}); err != nil {
					return err
				}
				full, err := y.Collect()
				if err != nil {
					return err
				}
				for i, v := range full {
					if v != 100+2*float64(i) {
						return fmt.Errorf("y[%d] = %v", i, v)
					}
				}
				return nil
			})
		})
	}
}

func TestServerPresetProportions(t *testing.T) {
	// The paper's Proportions(2,4,2,4): the server predefines an uneven
	// distribution before registration; transfers must respect it.
	spec := dist.Proportions{P: []int{2, 4, 2, 4}}
	for _, method := range []Method{Centralized, Multiport} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			t.Parallel()
			tc := startCluster(t, 4, true, spec)
			tc.runClient(t, 3, method, func(c *rts.Comm, b *Binding) error {
				const n = 1200
				arr, err := dseq.New(c, dseq.Float64, n, nil)
				if err != nil {
					return err
				}
				arr.FillFunc(func(g int) float64 { return float64(g) })
				if _, err := b.Invoke("scale", scaleScalars(2), []DistArg{InOutSeq(arr)}); err != nil {
					return err
				}
				full, err := arr.Collect()
				if err != nil {
					return err
				}
				for i, v := range full {
					if v != 2*float64(i) {
						return fmt.Errorf("full[%d] = %v", i, v)
					}
				}
				return nil
			})
		})
	}
}

func TestClientUnevenDistribution(t *testing.T) {
	// §3.3: "cases when the sequence is split unevenly are of comparable
	// efficiency" — here we check they are correct.
	for _, method := range []Method{Centralized, Multiport} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			t.Parallel()
			tc := startCluster(t, 5, true, nil)
			tc.runClient(t, 3, method, func(c *rts.Comm, b *Binding) error {
				const n = 999
				arr, err := dseq.New(c, dseq.Float64, n, dist.Proportions{P: []int{1, 5, 2}})
				if err != nil {
					return err
				}
				arr.FillFunc(func(g int) float64 { return float64(g) })
				if _, err := b.Invoke("scale", scaleScalars(-1), []DistArg{InOutSeq(arr)}); err != nil {
					return err
				}
				full, err := arr.Collect()
				if err != nil {
					return err
				}
				for i, v := range full {
					if v != -float64(i) {
						return fmt.Errorf("full[%d] = %v", i, v)
					}
				}
				return nil
			})
		})
	}
}

func TestUserExceptionPropagatesToAllThreads(t *testing.T) {
	tc := startCluster(t, 2, true, nil)
	for _, method := range []Method{Centralized, Multiport} {
		tc.runClient(t, 3, method, func(c *rts.Comm, b *Binding) error {
			_, err := b.Invoke("boom", ScalarEncoder().Bytes(), nil)
			var ue *orb.UserException
			if !errors.As(err, &ue) || ue.RepoID != "IDL:test/Kaboom:1.0" {
				return fmt.Errorf("rank %d got %v", c.Rank(), err)
			}
			return nil
		})
	}
}

func TestUnknownOperationRejectedLocally(t *testing.T) {
	tc := startCluster(t, 2, true, nil)
	tc.runClient(t, 2, Centralized, func(c *rts.Comm, b *Binding) error {
		_, err := b.Invoke("no_such_op", nil, nil)
		if !errors.Is(err, ErrArgMismatch) {
			return fmt.Errorf("got %v", err)
		}
		return nil
	})
}

func TestArgValidation(t *testing.T) {
	tc := startCluster(t, 2, true, nil)
	tc.runClient(t, 2, Centralized, func(c *rts.Comm, b *Binding) error {
		arr, err := dseq.New(c, dseq.Float64, 10, nil)
		if err != nil {
			return err
		}
		// Wrong direction.
		if _, err := b.Invoke("scale", scaleScalars(1), []DistArg{InSeq(arr)}); !errors.Is(err, ErrArgMismatch) {
			return fmt.Errorf("wrong dir: %v", err)
		}
		// Wrong arity.
		if _, err := b.Invoke("scale", scaleScalars(1), nil); !errors.Is(err, ErrArgMismatch) {
			return fmt.Errorf("wrong arity: %v", err)
		}
		// Wrong element type.
		iarr, err := dseq.New(c, dseq.Int32, 10, nil)
		if err != nil {
			return err
		}
		if _, err := b.Invoke("scale", scaleScalars(1), []DistArg{InOutSeq(iarr)}); !errors.Is(err, ErrArgMismatch) {
			return fmt.Errorf("wrong elem: %v", err)
		}
		return nil
	})
}

func TestMultiportRefusedWithoutEndpoints(t *testing.T) {
	tc := startCluster(t, 2, false, nil) // centralized-only export
	tc.runClient(t, 2, Centralized, func(c *rts.Comm, b *Binding) error {
		arr, err := dseq.New(c, dseq.Float64, 10, nil)
		if err != nil {
			return err
		}
		_, err = b.InvokeMethod(Multiport, "scale", scaleScalars(1), []DistArg{InOutSeq(arr)}, nil)
		if !errors.Is(err, ErrNoMultiport) {
			return fmt.Errorf("got %v", err)
		}
		// Centralized still works.
		_, err = b.Invoke("scale", scaleScalars(2), []DistArg{InOutSeq(arr)})
		return err
	})
}

func TestFutureNonBlockingInvocation(t *testing.T) {
	for _, method := range []Method{Centralized, Multiport} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			t.Parallel()
			tc := startCluster(t, 2, true, nil)
			tc.runClient(t, 2, method, func(c *rts.Comm, b *Binding) error {
				const n = 500
				arr, err := dseq.New(c, dseq.Float64, n, nil)
				if err != nil {
					return err
				}
				arr.FillFunc(func(g int) float64 { return 1 })
				fut := b.InvokeNB("scale", scaleScalars(5), []DistArg{InOutSeq(arr)})
				// The client can compute concurrently here (paper §2.1).
				if _, err := fut.Wait(); err != nil {
					return err
				}
				if !fut.Ready() {
					return errors.New("future not ready after Wait")
				}
				full, err := arr.Collect()
				if err != nil {
					return err
				}
				for i, v := range full {
					if v != 5 {
						return fmt.Errorf("full[%d] = %v", i, v)
					}
				}
				return nil
			})
		})
	}
}

func TestSecondInvocationWhileBusy(t *testing.T) {
	tc := startCluster(t, 2, true, nil)
	tc.runClient(t, 2, Centralized, func(c *rts.Comm, b *Binding) error {
		arr, err := dseq.New(c, dseq.Float64, 100, nil)
		if err != nil {
			return err
		}
		fut := b.InvokeNB("scale", scaleScalars(1), []DistArg{InOutSeq(arr)})
		// A concurrent second invocation on the same binding must fail
		// cleanly rather than corrupt collective state. It may also succeed
		// if the first already finished; both are acceptable, a hang is not.
		fut2 := b.InvokeNB("boom", ScalarEncoder().Bytes(), nil)
		if _, err := fut.Wait(); err != nil {
			return err
		}
		_, err2 := fut2.Wait()
		if err2 != nil && !errors.Is(err2, ErrBusy) {
			var ue *orb.UserException
			if !errors.As(err2, &ue) {
				return fmt.Errorf("second invocation: %v", err2)
			}
		}
		return nil
	})
}

func TestSequentialInvocations(t *testing.T) {
	tc := startCluster(t, 3, true, nil)
	tc.runClient(t, 2, Multiport, func(c *rts.Comm, b *Binding) error {
		arr, err := dseq.New(c, dseq.Float64, 256, nil)
		if err != nil {
			return err
		}
		arr.FillFunc(func(g int) float64 { return 1 })
		for i := 0; i < 5; i++ {
			if _, err := b.Invoke("scale", scaleScalars(2), []DistArg{InOutSeq(arr)}); err != nil {
				return fmt.Errorf("iteration %d: %w", i, err)
			}
		}
		v, err := arr.At(100)
		if err != nil {
			return err
		}
		if v != 32 {
			return fmt.Errorf("after 5 doublings: %v", v)
		}
		return nil
	})
}

func TestNonCollectiveBind(t *testing.T) {
	// The paper's plain _bind: each client thread binds independently and
	// uses the non-distributed mapping.
	tc := startCluster(t, 3, true, nil)
	clientW := rts.NewWorld(4, rts.Options{RecvTimeout: testTimeout})
	defer clientW.Close()
	err := clientW.Run(func(c *rts.Comm) error {
		b, err := Bind("example", tc.ns.Addr(), BindOptions{Timeout: testTimeout})
		if err != nil {
			return err
		}
		defer b.Close()
		// Each thread owns a full (non-distributed) array.
		arr, err := dseq.New(b.Comm(), dseq.Float64, 100, nil)
		if err != nil {
			return err
		}
		arr.FillFunc(func(g int) float64 { return float64(c.Rank()) })
		if _, err := b.Invoke("scale", scaleScalars(10), []DistArg{InOutSeq(arr)}); err != nil {
			return err
		}
		for _, v := range arr.LocalData() {
			if v != float64(c.Rank())*10 {
				return fmt.Errorf("thread %d saw %v", c.Rank(), v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSPMDClients(t *testing.T) {
	// Two independent SPMD clients hammer one SPMD object concurrently;
	// header centralization must keep their requests untangled (§3.3's
	// contention argument).
	tc := startCluster(t, 3, true, nil)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			method := Centralized
			if k%2 == 1 {
				method = Multiport
			}
			w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
			defer w.Close()
			errs[k] = w.Run(func(c *rts.Comm) error {
				b, err := SPMDBind(c, "example", tc.ns.Addr(), BindOptions{Method: method, Timeout: testTimeout})
				if err != nil {
					return err
				}
				defer b.Close()
				arr, err := dseq.New(c, dseq.Float64, 400, nil)
				if err != nil {
					return err
				}
				arr.FillFunc(func(g int) float64 { return float64(k + 1) })
				for i := 0; i < 3; i++ {
					if _, err := b.Invoke("scale", scaleScalars(2), []DistArg{InOutSeq(arr)}); err != nil {
						return err
					}
				}
				for _, v := range arr.LocalData() {
					if v != float64(k+1)*8 {
						return fmt.Errorf("client %d saw %v", k, v)
					}
				}
				return nil
			})
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", k, err)
		}
	}
}

func TestStopServingViaHandler(t *testing.T) {
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	serverW := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
	defer serverW.Close()
	stopDesc := OpDesc{Name: "shutdown"}
	serverDone := make(chan error, 1)
	ready := make(chan struct{})
	var once sync.Once
	go func() {
		serverDone <- serverW.Run(func(c *rts.Comm) error {
			obj, err := Export(c, ExportOptions{
				TypeID: "IDL:test/stoppable:1.0", Name: "stoppable", NameServer: ns.Addr(),
			}, []Operation{{
				Desc:    stopDesc,
				NewArgs: func(*rts.Comm, []int) ([]dseq.Transferable, error) { return nil, nil },
				Handler: func(call *ServerCall) error {
					call.Out.WriteString("bye")
					return ErrStopServing
				},
			}})
			if err != nil {
				once.Do(func() { close(ready) })
				return err
			}
			if c.Rank() == 0 {
				once.Do(func() { close(ready) })
			}
			defer obj.Close()
			return obj.Serve()
		})
	}()
	<-ready

	b, err := Bind("stoppable", ns.Addr(), BindOptions{Timeout: testTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	reply, err := b.Invoke("shutdown", ScalarEncoder().Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := ScalarDecoder(reply)
	if s, _ := d.ReadString(); s != "bye" {
		t.Fatalf("reply %q", s)
	}
	select {
	case err := <-serverDone:
		if err != nil {
			t.Fatalf("server world: %v", err)
		}
	case <-time.After(testTimeout):
		t.Fatal("Serve did not stop after ErrStopServing")
	}
}

// TestStopServingWhenAnotherThreadFails: the verdict rides the upcall agreement,
// whatever it agrees on. Thread 0's handler asks to stop while thread 1's fails:
// the client gets thread 1's error, and every computing thread leaves Serve, at
// the same collective.
func TestStopServingWhenAnotherThreadFails(t *testing.T) {
	desc := OpDesc{Name: "shutdown"}
	tc := startClusterOps(t, 2, false, func() []Operation {
		return []Operation{{
			Desc:    desc,
			NewArgs: func(*rts.Comm, []int) ([]dseq.Transferable, error) { return nil, nil },
			Handler: func(call *ServerCall) error {
				if call.Comm.Rank() == 0 {
					return ErrStopServing
				}
				return &orb.UserException{RepoID: "IDL:test/Refused:1.0", Message: "thread 1 refuses"}
			},
		}}
	})
	tc.runClient(t, 1, Centralized, func(_ *rts.Comm, b *Binding) error {
		_, err := b.Invoke("shutdown", ScalarEncoder().Bytes(), nil)
		if ue := (*orb.UserException)(nil); !errors.As(err, &ue) || ue.RepoID != "IDL:test/Refused:1.0" {
			return fmt.Errorf("the call ended with %v, want thread 1's exception", err)
		}
		return nil
	})
	select {
	case err := <-tc.serverErr:
		if err != nil {
			t.Fatalf("server world: %v", err)
		}
		tc.serverErr <- nil // for the cleanup's alignment check
	case <-time.After(testTimeout):
		t.Fatal("Serve did not stop after thread 0's handler asked it to")
	}
}

func TestPollNonBlocking(t *testing.T) {
	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	serverW := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
	defer serverW.Close()

	polled := make(chan struct{})
	invoked := make(chan struct{})
	scaleDesc := OpDesc{Name: "noop"}
	serverDone := make(chan error, 1)
	refCh := make(chan orb.IOR, 1)
	go func() {
		serverDone <- serverW.Run(func(c *rts.Comm) error {
			obj, err := Export(c, ExportOptions{TypeID: "IDL:test/pollable:1.0", Multiport: false},
				[]Operation{{
					Desc:    scaleDesc,
					NewArgs: func(*rts.Comm, []int) ([]dseq.Transferable, error) { return nil, nil },
					Handler: func(call *ServerCall) error { return nil },
				}})
			if err != nil {
				return err
			}
			defer obj.Close()
			if c.Rank() == 0 {
				refCh <- obj.Ref()
			}
			// Empty polls first: the "interrupt computation" pattern.
			for i := 0; i < 3; i++ {
				cont, err := obj.Poll(false)
				if err != nil || !cont {
					return fmt.Errorf("empty poll %d: cont=%v err=%v", i, cont, err)
				}
			}
			if c.Rank() == 0 {
				close(polled)
			}
			<-invoked
			// One blocking poll serves the queued request.
			cont, err := obj.Poll(true)
			if err != nil || !cont {
				return fmt.Errorf("serving poll: cont=%v err=%v", cont, err)
			}
			return nil
		})
	}()
	ref := <-refCh
	<-polled

	done := make(chan error, 1)
	go func() {
		b, err := BindRef(ref, BindOptions{Timeout: testTimeout})
		if err != nil {
			done <- err
			return
		}
		defer b.Close()
		_, err = b.Invoke("noop", ScalarEncoder().Bytes(), nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request hit the queue
	close(invoked)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
}
