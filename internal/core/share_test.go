package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dseq"
	"repro/internal/rts"
	"repro/internal/testutil"
	"repro/internal/zcodec"
)

// TestShareConnectionPoolsOneClient is the core-level ShareConnection proof:
// four SPMD ranks binding with identical options ride exactly one pooled
// client engine, a matching re-bind on the same rank reuses it, invocations
// still work through the shared engine, and the pool drains to empty once
// every sharing binding has closed.
func TestShareConnectionPoolsOneClient(t *testing.T) {
	testutil.CheckGoroutines(t, "share", func(t *testing.T) {
		tc := startCluster(t, 2, true, nil)
		opts := BindOptions{Method: Centralized, Timeout: testTimeout, ShareConnection: true}
		w := rts.NewWorld(4, rts.Options{RecvTimeout: testTimeout})
		defer w.Close()
		err := w.Run(func(c *rts.Comm) error {
			b, err := SPMDBind(c, "example", tc.ns.Addr(), opts)
			if err != nil {
				return err
			}
			defer b.Close()
			// SPMDBindRef acquires the pooled client before its collective
			// describe round, so once any rank is bound, all four acquisitions
			// have landed — and they must have coalesced into one entry.
			if n := sharedClients.Size(); n != 1 {
				return fmt.Errorf("rank %d: pool holds %d clients with 4 sharing ranks bound, want 1", c.Rank(), n)
			}
			// A second identically-configured binding reuses the same engine.
			b2, err := SPMDBind(c, "example", tc.ns.Addr(), opts)
			if err != nil {
				return err
			}
			defer b2.Close()
			if b.client != b2.client {
				return fmt.Errorf("rank %d: identically-configured sharing bindings got distinct clients", c.Rank())
			}
			if n := sharedClients.Size(); n != 1 {
				return fmt.Errorf("rank %d: pool grew to %d on a matching re-bind, want 1", c.Rank(), n)
			}
			// The shared engine still carries a real collective invocation.
			const n = 128
			arr, err := dseq.New(c, dseq.Float64, n, nil)
			if err != nil {
				return err
			}
			arr.FillFunc(func(g int) float64 { return float64(g) })
			if _, err := b.Invoke("scale", scaleScalars(2), []DistArg{InOutSeq(arr)}); err != nil {
				return fmt.Errorf("invoke through shared client: %w", err)
			}
			full, err := arr.Collect()
			if err != nil {
				return err
			}
			for i, v := range full {
				if v != float64(i)*2 {
					return fmt.Errorf("full[%d] = %v through shared client, want %v", i, v, float64(i)*2)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := sharedClients.Size(); n != 0 {
			t.Errorf("pool holds %d clients after every sharing binding closed, want 0", n)
		}
	})
}

// TestShareConnectionKeysAndRelease pins the pool's keying and refcount
// semantics: differently-configured sharing bindings get distinct engines,
// bindings that differ only in compression — a per-leg choice of the
// sender, not the engine's — share one, private bindings never touch the
// pool, Close is idempotent per binding, and the last release empties the
// pool.
func TestShareConnectionKeysAndRelease(t *testing.T) {
	testutil.CheckGoroutines(t, "keys", func(t *testing.T) {
		tc := startCluster(t, 1, false, nil)
		w := rts.NewWorld(1, rts.Options{RecvTimeout: testTimeout})
		defer w.Close()
		err := w.Run(func(c *rts.Comm) error {
			a, err := SPMDBind(c, "example", tc.ns.Addr(),
				BindOptions{Timeout: testTimeout, ShareConnection: true})
			if err != nil {
				return err
			}
			defer a.Close()
			b, err := SPMDBind(c, "example", tc.ns.Addr(),
				BindOptions{Timeout: testTimeout / 2, ShareConnection: true})
			if err != nil {
				return err
			}
			defer b.Close()
			if a.client == b.client {
				return fmt.Errorf("bindings with different timeouts shared one client engine")
			}
			if n := sharedClients.Size(); n != 2 {
				return fmt.Errorf("pool holds %d clients for 2 distinct configurations, want 2", n)
			}
			z, err := SPMDBind(c, "example", tc.ns.Addr(), BindOptions{Timeout: testTimeout, ShareConnection: true,
				Compression: zcodec.MaskAll, CompressionPolicy: zcodec.PolicyAlways})
			if err != nil {
				return err
			}
			same, n := z.client == a.client, sharedClients.Size()
			z.Close()
			if !same || n != 2 {
				return fmt.Errorf("a binding differing only in compression: same engine %v, pool %d; want true, 2", same, n)
			}
			// A private binding stays out of the pool entirely.
			priv, err := SPMDBind(c, "example", tc.ns.Addr(), BindOptions{Timeout: testTimeout})
			if err != nil {
				return err
			}
			if n := sharedClients.Size(); n != 2 {
				priv.Close()
				return fmt.Errorf("private binding changed the pool size to %d", n)
			}
			priv.Close()
			// Close releases exactly one reference and is idempotent: the
			// second Close must not underflow b's entry or touch a's.
			b.Close()
			b.Close()
			if n := sharedClients.Size(); n != 1 {
				return fmt.Errorf("pool holds %d after releasing one of two configurations, want 1", n)
			}
			a.Close()
			if n := sharedClients.Size(); n != 0 {
				return fmt.Errorf("pool holds %d after the last release, want 0", n)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestShareConnectionMultiport runs the direct shape's return flows over one
// shared client engine: every client thread's transfers come back on the same
// connections under the same token, so only the destination thread tells them
// apart.
func TestShareConnectionMultiport(t *testing.T) {
	for _, cfg := range []struct{ c, s int }{{2, 2}, {2, 4}, {4, 2}} {
		t.Run(fmt.Sprintf("c%d-s%d", cfg.c, cfg.s), func(t *testing.T) {
			tc := startCluster(t, cfg.s, true, nil)
			opts := BindOptions{Method: Multiport, Timeout: testTimeout, ShareConnection: true}
			tc.runClientOpts(t, cfg.c, opts, func(c *rts.Comm, b *Binding) error {
				const n = 1000
				arr, err := dseq.New(c, dseq.Float64, n, nil)
				if err != nil {
					return err
				}
				arr.FillFunc(func(g int) float64 { return float64(g) })
				for call := 1; call <= 3; call++ {
					if _, err := b.Invoke("scale", scaleScalars(2), []DistArg{InOutSeq(arr)}); err != nil {
						return fmt.Errorf("call %d: %w", call, err)
					}
				}
				full, err := arr.Collect()
				if err != nil {
					return err
				}
				for i, v := range full {
					if v != float64(i)*8 {
						return fmt.Errorf("full[%d] = %v through the shared client, want %v", i, v, float64(i)*8)
					}
				}
				return nil
			})
		})
	}
}

// TestShareConnectionSurvivesAnotherObjectsLoss binds one client to two
// one-thread objects over one shared engine and loses A's server while a call
// on B waits for its streamed result: B's call completes, whole. Before, the
// lost connection to A poisoned every sink of the engine, and B's call failed
// with COMM_FAILURE "data connection lost mid-transfer".
func TestShareConnectionSurvivesAnotherObjectsLoss(t *testing.T) {
	const n = 1 << 16
	slowIota := func() []Operation {
		ops := testObjectOps(nil)
		for i, op := range ops {
			if op.Desc.Name == "iota" {
				ops[i].Handler = func(call *ServerCall) error {
					time.Sleep(300 * time.Millisecond)
					return op.Handler(call)
				}
			}
		}
		return ops
	}
	tcA := startCluster(t, 1, false, nil)
	tcB := startClusterOps(t, 1, false, slowIota)
	opts := BindOptions{Timeout: testTimeout, ShareConnection: true}
	w := rts.NewWorld(1, rts.Options{RecvTimeout: testTimeout})
	defer w.Close()
	err := w.Run(func(c *rts.Comm) error {
		a, err := SPMDBind(c, "example", tcA.ns.Addr(), opts)
		if err != nil {
			return err
		}
		defer a.Close()
		b, err := SPMDBind(c, "example", tcB.ns.Addr(), opts)
		if err != nil {
			return err
		}
		defer b.Close()
		if a.client != b.client {
			return fmt.Errorf("the two bindings do not share a client engine")
		}
		lose := time.AfterFunc(50*time.Millisecond, func() {
			tcA.objMu.Lock()
			defer tcA.objMu.Unlock()
			for _, o := range tcA.objects {
				o.Close()
			}
		})
		defer lose.Stop()
		out, err := dseq.New(c, dseq.Float64, 0, nil)
		if err != nil {
			return err
		}
		size := ScalarEncoder()
		size.WriteLong(n)
		if _, err := b.Invoke("iota", size.Bytes(), []DistArg{OutSeq(out)}); err != nil {
			return fmt.Errorf("the call on B, whose server is healthy: %w", err)
		}
		if got := out.LocalData(); len(got) != n || got[0] != 0.5 || got[n-1] != n-0.5 {
			return fmt.Errorf("B's result: %d elements", len(got))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
