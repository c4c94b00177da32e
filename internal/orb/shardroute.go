package orb

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// Sharded object groups: a multi-profile reference whose profiles are N
// independent server groups (shards) behind one object reference, assembled
// by naming.BindReplica from each shard's own announcement. Instead of the
// fixed primary-first failover of InvokeOpts, a sharded invocation hashes
// its shard key onto a consistent-hash ring over the profiles and targets
// the owning shard; the PR 2 per-endpoint circuit breakers act as the
// health signal, spilling traffic from a broken or shedding shard to the
// next healthy ring successor.
//
// Reroute semantics: an idempotent invocation reroutes transparently on any
// failoverable error — the caller sees only success or a total outage. A
// non-idempotent invocation advances only past shards that provably never
// dispatched it (open circuit skipped before any send, a failed half-open
// probe, TRANSIENT shedding); an ambiguous failure (broken connection after
// the request was written) surfaces as one coherent *ShardError pinned to
// the shard that failed.

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
	ring  *shard.Ring
	addrs []string
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
		addrs:    addrs,
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

// InvokeSharded performs a request routed by consistent hash of o.ShardKey
// across the reference's profiles, each profile being one shard. It returns
// the reply payload and the index (into ref.Profiles()) of the shard that
// served the invocation; the index is -1 on failure.
//
// The owner shard is tried first, then the ring successors. A shard whose
// circuit is open is spilled past without a send; a shard due a half-open
// probe is first checked with a LocateRequest exactly as InvokeOpts does.
// Failures advance to the next successor under the idempotency rules above.
func (c *Client) InvokeSharded(ref IOR, op string, args []byte, o InvokeOptions) ([]byte, int, error) {
	addrs, err := ref.ProfileAddrs()
	if err != nil {
		return nil, -1, err
	}
	g := c.shardGroupFor(addrs)
	order := g.ring.Order(o.ShardKey)
	var lastErr error
	attempted := false
	for _, idx := range order {
		addr := addrs[idx]
		bk := c.breakerFor(addr)
		if bk != nil {
			ok, probe := bk.allow(time.Now())
			if !ok {
				// Circuit open: nothing was sent, so spilling to the ring
				// successor is safe for idempotent and non-idempotent alike.
				g.healthy[idx].Set(0)
				c.countShardSpill(g, idx)
				continue
			}
			if probe {
				if _, perr := c.locate(addr, ref.Key, o.Deadline); perr != nil {
					bk.failure(time.Now())
					if !failoverable(perr) {
						return nil, -1, perr
					}
					// The probe failed before any dispatch: safe to advance.
					g.healthy[idx].Set(0)
					lastErr = &ShardError{Shard: addr, Err: perr}
					c.countShardReroute(g, idx)
					c.countFailover()
					continue
				}
				bk.success()
			}
		}
		attempted = true
		g.picks[idx].Inc()
		out, ierr := c.InvokeAddrOpts(addr, ref.Key, op, args, o)
		if ierr == nil {
			if bk != nil {
				bk.success()
			}
			g.healthy[idx].Set(1)
			return out, idx, nil
		}
		if bk != nil && retryable(ierr) {
			bk.failure(time.Now())
		}
		if !failoverable(ierr) {
			// Application-level outcome: the shard is alive and answered.
			return nil, -1, ierr
		}
		g.healthy[idx].Set(0)
		if !o.Idempotent && !IsTransient(ierr) {
			// The request may have been dispatched (the connection broke
			// after the write); re-sending a non-idempotent operation could
			// execute it twice. Surface one coherent error instead.
			return nil, -1, &ShardError{Shard: addr, Err: ierr}
		}
		lastErr = &ShardError{Shard: addr, Err: ierr}
		c.countShardReroute(g, idx)
		c.countFailover()
	}
	if lastErr == nil && !attempted {
		return nil, -1, ErrAllEndpointsDown
	}
	if lastErr == nil {
		lastErr = ErrAllEndpointsDown
	}
	return nil, -1, lastErr
}
