package exp

import (
	"testing"
	"time"

	"repro/internal/orb"
	"repro/internal/testutil"
)

// TestSwarmFanInBoundedAndLeakFree is the fan-in proof at test scale: a
// thousand concurrent clients multiplexed over a handful of connections,
// every request resolving, goroutines o(clients) beyond the drivers
// themselves, and nothing — goroutines or pooled frames — leaked after the
// drain.
func TestSwarmFanInBoundedAndLeakFree(t *testing.T) {
	defer testutil.LeakCheck(t)()
	clients := 1000
	if testing.Short() {
		clients = 200
	}
	cfg := SwarmConfig{
		Clients:           clients,
		RequestsPerClient: 5,
		SharedConns:       8,
		WorkDelay:         200 * time.Microsecond,
		PayloadBytes:      512,
		Server: orb.ServerOptions{
			MaxInFlight:     256,
			MaxConnInFlight: -1, // the shared conns aggregate all clients
		},
	}
	rep, err := RunSwarm(cfg)
	if err != nil {
		t.Fatalf("swarm: %v", err)
	}
	t.Logf("%s", rep)

	total := uint64(cfg.Clients * cfg.RequestsPerClient)
	if rep.Completed+rep.Shed+rep.Failed != total {
		t.Errorf("request accounting: %d+%d+%d != %d issued",
			rep.Completed, rep.Shed, rep.Failed, total)
	}
	if rep.Failed != 0 {
		t.Errorf("%d requests failed outright; every request must resolve as a reply or a shed", rep.Failed)
	}
	if rep.Completed == 0 {
		t.Error("no request completed")
	}

	// The goroutine bill: the swarm's own drivers account for ~Clients
	// goroutines; everything the orb stack adds on top must be o(clients) —
	// serve loops and read loops bounded by connections, dispatch workers
	// bounded by MaxInFlight, and the worker reaper. Before the worker-pool
	// refactor this overhead was O(outstanding requests).
	overhead := rep.PeakGoroutines - rep.BaseGoroutines - cfg.Clients
	budget := 2*cfg.SharedConns + cfg.Server.MaxInFlight + cfg.Clients/8 + 32
	if overhead > budget {
		t.Errorf("orb-stack goroutine overhead %d exceeds budget %d (peak %d, base %d, %d drivers)",
			overhead, budget, rep.PeakGoroutines, rep.BaseGoroutines, cfg.Clients)
	}
	if rep.PeakWorkers > cfg.Server.MaxInFlight {
		t.Errorf("worker pool peaked at %d, above MaxInFlight %d", rep.PeakWorkers, cfg.Server.MaxInFlight)
	}
	if rep.PeakConns > cfg.SharedConns {
		t.Errorf("server saw %d conns, want at most the %d shared", rep.PeakConns, cfg.SharedConns)
	}

	// Admission accounting must agree across the wire: every TRANSIENT a
	// client saw is a shed the server counted, and vice versa.
	if rep.Shed != rep.ServerStats.Shed {
		t.Errorf("shed accounting: clients saw %d TRANSIENTs, server counted %d", rep.Shed, rep.ServerStats.Shed)
	}
	if rep.ServerStats.Dispatched != rep.Completed {
		t.Errorf("dispatch accounting: server dispatched %d, clients completed %d",
			rep.ServerStats.Dispatched, rep.Completed)
	}

	// Latency evidence: the dispatch histogram observed every completed
	// request, and its p99 stayed within the invocation timeout (a
	// conservative upper-bound quantile, so this is a real SLO statement).
	if rep.P99 == 0 {
		t.Error("no dispatch latency recorded")
	}
	if rep.P99 > 30*time.Second {
		t.Errorf("dispatch p99 %v beyond the invocation timeout", rep.P99)
	}

	if rep.PoolOutstanding != 0 {
		t.Errorf("frame pool leaked %+d buffers after drain", rep.PoolOutstanding)
	}
	if rep.ServerStats.InFlight != 0 || rep.ServerStats.Queued != 0 {
		t.Errorf("server gauges not drained: %d in flight, %d queued",
			rep.ServerStats.InFlight, rep.ServerStats.Queued)
	}
}

// TestSwarmOverloadShedsAndResolves drives the swarm well past a tiny
// admission budget: most requests must shed, none may hang or fail with
// anything but TRANSIENT, and the books must balance.
func TestSwarmOverloadShedsAndResolves(t *testing.T) {
	defer testutil.LeakCheck(t)()
	cfg := SwarmConfig{
		Clients:           300,
		RequestsPerClient: 3,
		SharedConns:       4,
		WorkDelay:         2 * time.Millisecond,
		Server: orb.ServerOptions{
			MaxInFlight:     8,
			QueueDepth:      4,
			MaxConnInFlight: -1,
		},
	}
	rep, err := RunSwarm(cfg)
	if err != nil {
		t.Fatalf("swarm: %v", err)
	}
	t.Logf("%s", rep)
	total := uint64(cfg.Clients * cfg.RequestsPerClient)
	if rep.Completed+rep.Shed+rep.Failed != total {
		t.Errorf("request accounting: %d+%d+%d != %d issued",
			rep.Completed, rep.Shed, rep.Failed, total)
	}
	if rep.Failed != 0 {
		t.Errorf("%d requests failed with non-TRANSIENT errors under overload", rep.Failed)
	}
	if rep.Shed == 0 {
		t.Error("overload produced no shedding; admission control did not engage")
	}
	if rep.Completed == 0 {
		t.Error("overload starved every request; admission must keep serving within budget")
	}
	if rep.Shed != rep.ServerStats.Shed {
		t.Errorf("shed accounting: clients saw %d, server counted %d", rep.Shed, rep.ServerStats.Shed)
	}
	if rep.PeakWorkers > cfg.Server.MaxInFlight {
		t.Errorf("worker pool peaked at %d, above MaxInFlight %d", rep.PeakWorkers, cfg.Server.MaxInFlight)
	}
	if rep.PoolOutstanding != 0 {
		t.Errorf("frame pool leaked %+d buffers after drain", rep.PoolOutstanding)
	}
}
