package orb

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFailoverCountsOnlyMoves: orb.client.failovers, and for a keyed walk
// shard.reroute_total, count moves to another profile; a failure with no
// profile left to move to is no failover.
func TestFailoverCountsOnlyMoves(t *testing.T) {
	ref, servers, _ := shardedRef(t, 2)
	reg := obs.NewRegistry()
	c := NewClient()
	c.Timeout = 5 * time.Second
	c.Metrics = reg
	defer c.Close()
	failovers, reroutes := reg.Counter("orb.client.failovers"), reg.Counter("shard.reroute_total")
	args := NewArgEncoder().Bytes()

	servers[0].Close()
	primaryOnly := ref
	primaryOnly.Alternates = nil
	if _, err := c.Invoke(primaryOnly, "who", args, false); err == nil {
		t.Fatal("a call to a closed one-profile reference succeeded")
	}
	if got := failovers.Value(); got != 0 {
		t.Errorf("a one-profile failure counted %d failovers, want 0", got)
	}
	if _, err := c.Invoke(ref, "who", args, false); err != nil {
		t.Fatalf("failover to the second profile: %v", err)
	}
	if got := failovers.Value(); got != 1 {
		t.Errorf("one move counted %d failovers, want 1", got)
	}

	servers[1].Close()
	if _, err := c.InvokeOpts(ref, "who", args, InvokeOptions{ShardKey: []byte("k"), Idempotent: true}); err == nil {
		t.Fatal("a keyed call with every shard closed succeeded")
	}
	if f, r := failovers.Value(), reroutes.Value(); f != 2 || r != 1 {
		t.Errorf("a keyed walk over two closed shards counted %d failovers (want 2 in all) and %d reroutes (want 1)", f, r)
	}
}
