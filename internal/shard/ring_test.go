package shard

import (
	"fmt"
	"reflect"
	"testing"
)

func keys(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	return out
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:8000", i)
	}
	return out
}

func TestRingDeterministic(t *testing.T) {
	a := New(names(5), 0)
	b := New(names(5), 0)
	for _, k := range keys(100) {
		if a.Shard(k) != b.Shard(k) {
			t.Fatalf("rings over identical membership disagree on %q", k)
		}
		if !reflect.DeepEqual(a.Order(k), b.Order(k)) {
			t.Fatalf("failover order differs for %q: %v vs %v", k, a.Order(k), b.Order(k))
		}
	}
}

func TestRingBalance(t *testing.T) {
	const shards, nkeys = 8, 10000
	r := New(names(shards), 0)
	counts := make([]int, shards)
	for _, k := range keys(nkeys) {
		s := r.Shard(k)
		if s < 0 || s >= shards {
			t.Fatalf("Shard(%q) = %d out of range", k, s)
		}
		counts[s]++
	}
	mean := nkeys / shards
	for i, c := range counts {
		if c < mean/3 || c > mean*3 {
			t.Fatalf("shard %d owns %d of %d keys (mean %d): imbalance beyond 3x — %v",
				i, c, nkeys, mean, counts)
		}
	}
}

func TestRingOrderCoversAllShardsOnce(t *testing.T) {
	r := New(names(6), 16)
	for _, k := range keys(50) {
		order := r.Order(k)
		if len(order) != 6 {
			t.Fatalf("Order(%q) = %v, want all 6 shards", k, order)
		}
		if order[0] != r.Shard(k) {
			t.Fatalf("Order(%q)[0] = %d, owner is %d", k, order[0], r.Shard(k))
		}
		seen := map[int]bool{}
		for _, s := range order {
			if seen[s] {
				t.Fatalf("Order(%q) repeats shard %d: %v", k, s, order)
			}
			seen[s] = true
		}
	}
}

// TestRingConsistency pins the property rerouting relies on: dropping one
// shard from the membership only remaps the keys that shard owned; every
// other key keeps its owner.
func TestRingConsistency(t *testing.T) {
	all := names(5)
	full := New(all, 0)
	reduced := New(all[:4], 0) // shard 4 removed
	moved := 0
	for _, k := range keys(2000) {
		was := full.Shard(k)
		now := reduced.Shard(k)
		if was != 4 {
			if now != was {
				t.Fatalf("key %q moved %d -> %d though shard 4 was the one removed", k, was, now)
			}
			continue
		}
		moved++
		// The orphaned key must land on its old ring successor.
		order := full.Order(k)
		if len(order) < 2 || order[1] != now {
			t.Fatalf("key %q (orphaned) landed on %d, ring successor was %v", k, now, order)
		}
	}
	if moved == 0 {
		t.Fatal("shard 4 owned no keys; balance test should have caught this")
	}
}

func TestRingEdgeCases(t *testing.T) {
	empty := New(nil, 0)
	if empty.Shard([]byte("k")) != -1 || empty.Order([]byte("k")) != nil || empty.Len() != 0 {
		t.Fatal("empty ring must return -1/nil")
	}
	one := New([]string{"only"}, 4)
	for _, k := range keys(10) {
		if one.Shard(k) != 0 {
			t.Fatal("single-shard ring must own everything")
		}
		if got := one.Order(k); !reflect.DeepEqual(got, []int{0}) {
			t.Fatalf("single-shard order %v", got)
		}
	}
}
