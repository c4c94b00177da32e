package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cdr"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/shard"
)

// Shard chaos harness: N independent server groups register as replicas of
// one name, the naming domain merges them into one multi-profile reference,
// and a client shard-routes a keyed request stream across them by
// consistent hash. Optionally one shard is killed mid-run; the headline
// robustness property under test is that every idempotent request still
// completes — rerouted to the ring successor — with the reroute visible only
// in the counters.

// ShardChaosConfig describes one sharded run.
type ShardChaosConfig struct {
	// Shards is the number of server groups behind the reference.
	Shards int
	// Requests is the total sequential invocations issued.
	Requests int
	// Keys is the number of distinct shard keys the requests cycle over.
	Keys int
	// KillShard, when >= 0, kills that shard (by index into the announced
	// profiles) after KillAfter requests; KillAfter <= 0 means Requests/2.
	// Server ports are random, so the ring layout varies run to run; when
	// the chosen shard happens to own none of the cycled keys, the kill is
	// retargeted to the shard owning the most so the fault is observable.
	KillShard int
	KillAfter int
	// Idempotent marks the request stream safe to re-send (transparent
	// reroute); without it mid-flight failures surface as shard errors.
	Idempotent bool
	// Breaker is the client's per-endpoint circuit policy; the zero value
	// gets a threshold of 1 and a 100ms cooldown so a killed shard opens
	// its circuit promptly.
	Breaker orb.BreakerPolicy
	// Metrics receives the client's shard counters; one is created when nil
	// so the report can always read them.
	Metrics *obs.Registry
}

// ShardChaosResult is what the run measured.
type ShardChaosResult struct {
	Completed int
	Failed    int
	// PerShard counts replies by the serving shard's tag ("shard-<i>").
	PerShard map[string]int
	// DeadServedAfterKill counts replies attributed to the killed shard
	// after the kill — always 0 unless rerouting is broken.
	DeadServedAfterKill int
	// Reroutes and Spills are the client's aggregate shard counters
	// (shard.reroute_total / shard.spill_total) after the run.
	Reroutes uint64
	Spills   uint64
	// ShardsServing is how many distinct shards answered at least once.
	ShardsServing int
	Elapsed       time.Duration
}

func (r ShardChaosResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "shards: %d completed, %d failed in %v\n",
		r.Completed, r.Failed, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  reroutes %d, spills %d, shards serving %d, dead-after-kill %d\n",
		r.Reroutes, r.Spills, r.ShardsServing, r.DeadServedAfterKill)
	fmt.Fprintf(&sb, "  per shard: %v", r.PerShard)
	return sb.String()
}

// shardEchoServant answers "who" with its shard tag; a pure read, so the
// request stream is honestly idempotent.
type shardEchoServant struct{ tag string }

func (s shardEchoServant) Dispatch(op string, in *cdr.Decoder, out *cdr.Encoder) error {
	if op != "who" {
		return orb.BadOperation(op)
	}
	out.WriteString(s.tag)
	return nil
}

// RunShardChaos executes the experiment and returns the measured result.
// The zero-failure property for idempotent runs is the caller's to assert.
func RunShardChaos(cfg ShardChaosConfig) (*ShardChaosResult, error) {
	if cfg.Shards < 1 || cfg.Requests < 1 {
		return nil, fmt.Errorf("exp: invalid shard config %+v", cfg)
	}
	if cfg.Keys < 1 {
		cfg.Keys = 4 * cfg.Shards
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Breaker.Threshold == 0 {
		cfg.Breaker = orb.BreakerPolicy{Threshold: 1, Cooldown: 100 * time.Millisecond}
	}
	killAfter := cfg.KillAfter
	if killAfter <= 0 {
		killAfter = cfg.Requests / 2
	}

	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ns.Close()

	// One server group per shard, announced through BindReplica — the ring
	// membership is exactly what the merged multi-profile IOR carries.
	key := []byte("spmd/IDL:exp/shard:1.0/chaos")
	servers := make([]*orb.Server, cfg.Shards)
	for i := range servers {
		srv, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		srv.Register(key, shardEchoServant{tag: fmt.Sprintf("shard-%d", i)})
		servers[i] = srv
	}

	cli := orb.NewClient()
	defer cli.Close()
	cli.Timeout = 10 * time.Second
	cli.Breaker = cfg.Breaker
	cli.Metrics = cfg.Metrics

	res := naming.NewResolver(cli, ns.Addr())
	for i, srv := range servers {
		ref := orb.IOR{TypeID: "IDL:exp/shard:1.0", Key: key, Threads: 1,
			Endpoints: []orb.Endpoint{srv.Endpoint(0)}}
		if err := res.BindReplica("chaos", ref); err != nil {
			return nil, fmt.Errorf("announcing shard %d: %w", i, err)
		}
		// A shard announcing twice must not inflate the ring.
		if err := res.BindReplica("chaos", ref); err != nil {
			return nil, fmt.Errorf("re-announcing shard %d: %w", i, err)
		}
	}
	ref, err := res.Resolve("chaos", "IDL:exp/shard:1.0")
	if err != nil {
		return nil, err
	}
	if got := 1 + len(ref.Alternates); got != cfg.Shards {
		return nil, fmt.Errorf("merged reference carries %d profiles, want %d", got, cfg.Shards)
	}
	// The announcement order above matches the profile order, so profile
	// index i is shard tag "shard-i" — which lets the report attribute the
	// killed shard's traffic.
	killedTag := ""
	if cfg.KillShard >= 0 && cfg.KillShard < cfg.Shards {
		addrs, err := ref.ProfileAddrs()
		if err != nil {
			return nil, err
		}
		ring := shard.New(addrs, shard.DefaultVirtualNodes) // the client's ring
		owned := make([]int, cfg.Shards)
		for k := 0; k < cfg.Keys; k++ {
			owned[ring.Shard([]byte(fmt.Sprintf("key-%d", k)))]++
		}
		if owned[cfg.KillShard] == 0 {
			for i, n := range owned {
				if n > owned[cfg.KillShard] {
					cfg.KillShard = i
				}
			}
		}
		killedTag = fmt.Sprintf("shard-%d", cfg.KillShard)
	}

	out := &ShardChaosResult{PerShard: map[string]int{}}
	start := time.Now()
	killed := false
	for i := 0; i < cfg.Requests; i++ {
		if killedTag != "" && !killed && i >= killAfter {
			servers[cfg.KillShard].Close()
			killed = true
		}
		shardKey := []byte(fmt.Sprintf("key-%d", i%cfg.Keys))
		reply, err := cli.InvokeOpts(ref, "who", orb.NewArgEncoder().Bytes(), orb.InvokeOptions{
			ShardKey: shardKey, Idempotent: cfg.Idempotent,
		})
		if err != nil {
			out.Failed++
			continue
		}
		d, derr := orb.ArgDecoder(reply)
		if derr != nil {
			out.Failed++
			continue
		}
		tag, derr := d.ReadString()
		if derr != nil {
			out.Failed++
			continue
		}
		out.Completed++
		out.PerShard[tag]++
		if killed && tag == killedTag {
			out.DeadServedAfterKill++
		}
	}
	out.Elapsed = time.Since(start)
	out.ShardsServing = len(out.PerShard)
	out.Reroutes = cfg.Metrics.Counter("shard.reroute_total").Value()
	out.Spills = cfg.Metrics.Counter("shard.spill_total").Value()
	return out, nil
}
