package exp

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/orb"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// TestSoakBindInvokeDrainRebind is the leak-checked soak: a few hundred
// bind → invoke → drain → rebind cycles against one orb server, with the
// server itself bounced periodically, asserting the process reaches a steady
// state — heap growth bounded, goroutines back to baseline, frame pool
// balanced. A per-cycle leak of even one goroutine or buffer fails loudly
// here long before it would show up in production fan-in. Wall-clock
// bounded so a slow CI box cuts cycles, not correctness.
func TestSoakBindInvokeDrainRebind(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	defer testutil.LeakCheck(t)()
	defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()

	key := []byte("soak-object")
	newServer := func() *orb.Server {
		srv, err := orb.NewServerOpts("127.0.0.1:0", orb.ServerOptions{
			MaxConnInFlight: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Register(key, echoSleepServant(0))
		return srv
	}
	srv := newServer()
	defer func() { srv.Close() }()

	arg := orb.NewArgEncoder()
	arg.WriteOctets(make([]byte, 256))
	payload := arg.Bytes()

	const (
		cycles          = 300
		invokesPerCycle = 4
		serverBounce    = 100 // drain and restart the server every N cycles
		warmup          = 20  // cycles before the heap baseline is taken
	)
	budget := 30 * time.Second
	start := time.Now()

	var ms runtime.MemStats
	var baseHeap uint64
	ran := 0
	for i := 0; i < cycles; i++ {
		if i > warmup && time.Since(start) > budget {
			break // enough cycles to judge stability; don't blow the CI budget
		}
		if i > 0 && i%serverBounce == 0 {
			// Drain the old server completely, then rebind everything that
			// follows to a fresh one — the server lifecycle must not leak
			// either.
			if err := srv.Close(); err != nil {
				t.Fatalf("cycle %d: server drain: %v", i, err)
			}
			srv = newServer()
		}
		c := orb.NewClient()
		c.Timeout = 10 * time.Second
		for j := 0; j < invokesPerCycle; j++ {
			if _, err := c.InvokeAddr(nil, srv.Addr(), key, "echo", payload, false); err != nil {
				t.Fatalf("cycle %d invoke %d: %v", i, j, err)
			}
		}
		c.Close()
		ran++
		if i == warmup {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			baseHeap = ms.HeapAlloc
		}
	}
	if ran <= warmup {
		t.Fatalf("only %d cycles ran; too few to judge steady state", ran)
	}
	t.Logf("%d bind/invoke/drain cycles in %v", ran, time.Since(start))

	runtime.GC()
	runtime.ReadMemStats(&ms)
	growth := int64(ms.HeapAlloc) - int64(baseHeap)
	// The steady state holds a few pooled encoders and frames; what it must
	// not do is accumulate per-cycle state. 8 MiB of headroom is ~30 KiB per
	// cycle — far above noise, far below any real per-connection leak at
	// these counts.
	if growth > 8<<20 {
		t.Errorf("heap grew %+d bytes over %d post-warmup cycles; per-cycle state is accumulating",
			growth, ran-warmup)
	}
	st := srv.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("server gauges not drained after soak: %d in flight, %d queued", st.InFlight, st.Queued)
	}
}
