package orb

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/shard"
)

// Sharded object groups: a multi-profile reference whose profiles are N
// independent server groups (shards) behind one object reference, assembled
// by naming.BindReplica from each shard's own announcement. An invocation
// with a shard key walks the profiles (Route) in the order a consistent-hash
// ring over them gives the key, owner first; the per-endpoint circuit
// breakers act as the health signal, spilling traffic from a broken or
// shedding shard to the next healthy ring successor.

// ShardPolicy configures the client's consistent-hash routing.
type ShardPolicy struct {
	// VirtualNodes is the number of ring points per shard;
	// <= 0 means shard.DefaultVirtualNodes. Every client of a shard group
	// must use the same value or their rings disagree.
	VirtualNodes int
}

// ShardError pins an invocation failure to the shard that produced it. It is
// the single coherent error a non-idempotent sharded invocation surfaces
// when its outcome on that shard is ambiguous.
type ShardError struct {
	Shard string // primary address of the failing shard
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("orb: shard %s: %v", e.Shard, e.Err) }
func (e *ShardError) Unwrap() error { return e.Err }

// shardGroup is the cached routing state for one profile set: the ring plus
// the per-shard instruments, resolved once so the per-invocation hot path
// does no registry lookups.
type shardGroup struct {
	ring *shard.Ring
	// Per-shard instruments; nil (and no-ops) when metrics are off.
	picks    []*obs.Counter
	reroutes []*obs.Counter
	spills   []*obs.Counter
	healthy  []*obs.Gauge
}

// shardGroupFor returns the routing state for the profile addresses,
// building and caching it on first sight of this membership. A refreshed
// reference (new membership through the naming domain) has a different
// address list and gets a fresh ring; stale entries are retained —
// membership churn is rare and entries are small.
func (c *Client) shardGroupFor(addrs []string) *shardGroup {
	key := strings.Join(addrs, " ")
	c.sgMu.Lock()
	defer c.sgMu.Unlock()
	if g, ok := c.sgCache[key]; ok {
		return g
	}
	g := &shardGroup{
		ring:     shard.New(addrs, c.Shard.VirtualNodes),
		picks:    make([]*obs.Counter, len(addrs)),
		reroutes: make([]*obs.Counter, len(addrs)),
		spills:   make([]*obs.Counter, len(addrs)),
		healthy:  make([]*obs.Gauge, len(addrs)),
	}
	if m := c.Metrics; m != nil {
		for i, addr := range addrs {
			g.picks[i] = m.Counter("shard.picks_total." + addr)
			g.reroutes[i] = m.Counter("shard.reroute_total." + addr)
			g.spills[i] = m.Counter("shard.spill_total." + addr)
			g.healthy[i] = m.Gauge("shard.healthy." + addr)
			g.healthy[i].Set(1)
		}
	}
	c.sgCache[key] = g
	return g
}

// countShardReroute and countShardSpill bump the aggregate counters the
// shard chaos suite and dashboards watch ("shard.reroute_total",
// "shard.spill_total"), plus the per-shard counter.
func (c *Client) countShardReroute(g *shardGroup, idx int) {
	c.obsInit()
	c.mShardReroute.Inc()
	g.reroutes[idx].Inc()
}

func (c *Client) countShardSpill(g *shardGroup, idx int) {
	c.obsInit()
	c.mShardSpill.Inc()
	g.spills[idx].Inc()
}
