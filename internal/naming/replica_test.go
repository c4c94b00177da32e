package naming

import (
	"errors"
	"testing"

	"repro/internal/orb"
)

func replicaRef(host string, port int) orb.IOR {
	return orb.IOR{
		TypeID:    "IDL:test/rep:1.0",
		Key:       []byte("rep"),
		Threads:   1,
		Endpoints: []orb.Endpoint{{Host: host, Port: port, Rank: 0}},
	}
}

func TestRegistryBindReplicaMergesProfiles(t *testing.T) {
	r := NewRegistry()
	if err := r.BindReplica("svc", replicaRef("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.BindReplica("svc", replicaRef("b", 2)); err != nil {
		t.Fatal(err)
	}
	// Re-registration of a known replica is idempotent.
	if err := r.BindReplica("svc", replicaRef("b", 2)); err != nil {
		t.Fatal(err)
	}
	ref, err := r.Resolve("svc", "")
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := ref.ProfileAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != "a:1" || addrs[1] != "b:2" {
		t.Fatalf("merged profiles %v, want [a:1 b:2]", addrs)
	}
}

// TestRegistryBindReplicaRepeatedAnnouncements pins the merge hygiene a
// replica group depends on: replicas re-announce periodically, and the merged
// reference must not inflate — the failover walk over its profiles would
// otherwise visit phantom replicas.
func TestRegistryBindReplicaRepeatedAnnouncements(t *testing.T) {
	r := NewRegistry()
	a, b := replicaRef("a", 1), replicaRef("b", 2)

	// A replica that has already resolved the group may announce the merged
	// reference back, rotated so itself is primary. Both profiles are known:
	// nothing may be added.
	if err := r.BindReplica("svc", a); err != nil {
		t.Fatal(err)
	}
	if err := r.BindReplica("svc", b); err != nil {
		t.Fatal(err)
	}
	rotated := b
	rotated.Alternates = [][]orb.Endpoint{a.Endpoints}
	if err := r.BindReplica("svc", rotated); err != nil {
		t.Fatal(err)
	}
	ref, err := r.Resolve("svc", "")
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := ref.ProfileAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 {
		t.Fatalf("rotated re-announcement inflated the group: %v", addrs)
	}

	// A replica announcing with duplicate endpoints inside one profile must
	// have them collapsed.
	dup := replicaRef("c", 3)
	dup.Endpoints = append(dup.Endpoints, dup.Endpoints[0])
	if err := r.BindReplica("svc", dup); err != nil {
		t.Fatal(err)
	}
	ref, _ = r.Resolve("svc", "")
	for i, prof := range ref.Profiles() {
		seen := map[string]bool{}
		for _, ep := range prof {
			k := ep.Addr()
			if seen[k] {
				t.Fatalf("profile %d carries duplicate endpoint %s", i, k)
			}
			seen[k] = true
		}
	}
}

// TestRegistryBindReplicaRefreshReplacesEndpoints: a replica that restarts on
// the same primary address but with different secondary ports must have its
// profile replaced in place, not duplicated alongside the stale one.
func TestRegistryBindReplicaRefreshReplacesEndpoints(t *testing.T) {
	r := NewRegistry()
	old := orb.IOR{TypeID: "IDL:test/rep:1.0", Key: []byte("rep"), Threads: 2,
		Endpoints: []orb.Endpoint{{Host: "a", Port: 1, Rank: 0}, {Host: "a", Port: 100, Rank: 1}}}
	if err := r.BindReplica("svc", old); err != nil {
		t.Fatal(err)
	}
	if err := r.BindReplica("svc", replicaRef("b", 2)); err != nil {
		t.Fatal(err)
	}
	// Restart: same communicating endpoint a:1, new data port for rank 1.
	fresh := old
	fresh.Endpoints = []orb.Endpoint{{Host: "a", Port: 1, Rank: 0}, {Host: "a", Port: 200, Rank: 1}}
	if err := r.BindReplica("svc", fresh); err != nil {
		t.Fatal(err)
	}
	ref, err := r.Resolve("svc", "")
	if err != nil {
		t.Fatal(err)
	}
	profs := ref.Profiles()
	if len(profs) != 2 {
		t.Fatalf("refresh duplicated the profile: %d profiles", len(profs))
	}
	if got := profs[0][1].Port; got != 200 {
		t.Fatalf("rank-1 port after refresh is %d, want the new 200", got)
	}
}

func TestRegistryBindReplicaRejectsMismatches(t *testing.T) {
	r := NewRegistry()
	if err := r.BindReplica("svc", replicaRef("a", 1)); err != nil {
		t.Fatal(err)
	}
	var ue *orb.UserException

	wrongType := replicaRef("b", 2)
	wrongType.TypeID = "IDL:test/other:1.0"
	if err := r.BindReplica("svc", wrongType); !errors.As(err, &ue) || ue.RepoID != RepoTypeMismatch {
		t.Fatalf("type mismatch: %v", err)
	}

	wrongKey := replicaRef("b", 2)
	wrongKey.Key = []byte("different")
	if err := r.BindReplica("svc", wrongKey); !errors.As(err, &ue) || ue.RepoID != RepoTypeMismatch {
		t.Fatalf("key mismatch: %v", err)
	}

	if err := r.BindReplica("svc", orb.IOR{}); err == nil {
		t.Fatal("nil replica reference accepted")
	}
}

func TestRemoteBindReplica(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cli := orb.NewClient()
	defer cli.Close()
	res := NewResolver(cli, s.Addr())

	if err := res.BindReplica("svc", replicaRef("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := res.BindReplica("svc", replicaRef("b", 2)); err != nil {
		t.Fatal(err)
	}
	ref, err := res.Resolve("svc", "IDL:test/rep:1.0")
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := ref.ProfileAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != "a:1" || addrs[1] != "b:2" {
		t.Fatalf("resolved profiles %v, want [a:1 b:2]", addrs)
	}

	wrongType := replicaRef("c", 3)
	wrongType.TypeID = "IDL:test/other:1.0"
	var ue *orb.UserException
	if err := res.BindReplica("svc", wrongType); !errors.As(err, &ue) || ue.RepoID != RepoTypeMismatch {
		t.Fatalf("remote type mismatch: %v", err)
	}
}
