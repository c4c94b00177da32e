// Package shard implements consistent-hash routing over object shards.
//
// The PARDIS sharding layer partitions traffic across N independent SPMD
// server groups standing behind one object reference: each profile of a
// multi-profile IOR is one shard, and a client picks the shard for an
// invocation by hashing its shard key (an object key, or a key derived from
// a dsequence key range) onto a ring of virtual nodes. When a shard is
// broken or read-only, traffic spills to the next healthy ring successor —
// the rerouting discipline of VictoriaMetrics' vminsert node selection,
// applied to CORBA-style invocations.
//
// The ring is immutable once built: membership changes arrive as a new
// profile set (a refreshed IOR through the naming domain) and build a new
// ring. Hashing is FNV-1a over the shard name plus a virtual-node suffix, so
// every client derives the identical ring from the identical membership
// without coordination, and removing one shard only remaps the keys that
// shard owned.
package shard

import (
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-shard virtual-node count when a caller
// passes 0. 64 points per shard keeps the maximum/mean key imbalance within
// a few tens of percent for small rings while the ring stays tiny (a 16-way
// group is 1024 points, ~16 KiB).
const DefaultVirtualNodes = 64

// point is one virtual node: a position on the hash circle owned by a shard.
type point struct {
	h     uint64
	shard int32
}

// Ring is an immutable consistent-hash ring over a set of named shards.
type Ring struct {
	points []point
	names  []string
}

// fnv1a is the 64-bit FNV-1a hash; inlined so the package has zero
// dependencies and the hash is pinned (ring placement is a wire-visible
// contract between every client of a shard group).
func fnv1a(seed uint64, b []byte) uint64 {
	h := seed
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

const fnvOffset = 14695981039346656037

// mix is a 64-bit avalanche finalizer (the murmur3 fmix64 constants): FNV-1a
// alone disperses short, near-identical inputs — "host:8000" vs "host:8001",
// virtual-node counters — too weakly for an even ring.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Hash returns the ring hash of a shard key.
func Hash(key []byte) uint64 { return mix(fnv1a(fnvOffset, key)) }

// New builds a ring over the given shard names with virtualNodes points per
// shard (DefaultVirtualNodes when <= 0). Names order is preserved: Shard and
// Order return indices into it. An empty name set yields an empty ring.
func New(names []string, virtualNodes int) *Ring {
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	r := &Ring{names: append([]string(nil), names...)}
	r.points = make([]point, 0, len(names)*virtualNodes)
	var buf []byte
	for i, name := range names {
		seed := fnv1a(fnvOffset, []byte(name))
		for v := 0; v < virtualNodes; v++ {
			buf = strconv.AppendInt(buf[:0], int64(v), 10)
			r.points = append(r.points, point{h: mix(fnv1a(seed, buf)), shard: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].h != r.points[b].h {
			return r.points[a].h < r.points[b].h
		}
		// A full 64-bit collision is practically impossible, but the tie
		// break keeps the ring deterministic even then.
		return r.points[a].shard < r.points[b].shard
	})
	return r
}

// Len returns the number of shards on the ring.
func (r *Ring) Len() int { return len(r.names) }

// owner returns the index into points of the virtual node owning key.
func (r *Ring) owner(key []byte) int {
	h := Hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Shard returns the index of the shard owning key, or -1 on an empty ring.
func (r *Ring) Shard(key []byte) int {
	if len(r.points) == 0 {
		return -1
	}
	return int(r.points[r.owner(key)].shard)
}

// Order returns every shard index exactly once, in failover order for key:
// the owner first, then each distinct successor walking the ring clockwise.
// Rerouting traffic off a broken shard to Order[1], Order[2], ... preserves
// the consistent-hashing property — keys not owned by the broken shard keep
// their shard.
func (r *Ring) Order(key []byte) []int {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]int, 0, len(r.names))
	seen := make([]bool, len(r.names))
	start := r.owner(key)
	for i := 0; i < len(r.points) && len(out) < len(r.names); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, int(p.shard))
		}
	}
	return out
}
