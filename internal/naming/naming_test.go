package naming

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/orb"
)

func sampleRef(name string) orb.IOR {
	return orb.IOR{
		TypeID:    "IDL:test/" + name + ":1.0",
		Key:       []byte(name),
		Threads:   1,
		Endpoints: []orb.Endpoint{{Host: "10.0.0.9", Port: 1234, Rank: 0}},
	}
}

func TestRegistryBindResolve(t *testing.T) {
	r := NewRegistry()
	ref := sampleRef("alpha")
	if err := r.Bind("alpha", ref, false); err != nil {
		t.Fatal(err)
	}
	got, err := r.Resolve("alpha", "")
	if err != nil || got.TypeID != ref.TypeID {
		t.Fatalf("resolve: %+v, %v", got, err)
	}
	// Type-constrained resolution.
	if _, err := r.Resolve("alpha", ref.TypeID); err != nil {
		t.Fatalf("typed resolve: %v", err)
	}
	var ue *orb.UserException
	if _, err := r.Resolve("alpha", "IDL:other:1.0"); !errors.As(err, &ue) || ue.RepoID != RepoTypeMismatch {
		t.Fatalf("type mismatch: %v", err)
	}
	if _, err := r.Resolve("missing", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
}

func TestRegistryRebind(t *testing.T) {
	r := NewRegistry()
	if err := r.Bind("x", sampleRef("x1"), false); err != nil {
		t.Fatal(err)
	}
	var ue *orb.UserException
	if err := r.Bind("x", sampleRef("x2"), false); !errors.As(err, &ue) || ue.RepoID != RepoAlreadyBound {
		t.Fatalf("rebind without replace: %v", err)
	}
	if err := r.Bind("x", sampleRef("x2"), true); err != nil {
		t.Fatalf("rebind with replace: %v", err)
	}
	got, _ := r.Resolve("x", "")
	if got.TypeID != "IDL:test/x2:1.0" {
		t.Fatalf("replace did not take: %v", got.TypeID)
	}
}

func TestRegistryUnbindAndList(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"c", "a", "b"} {
		if err := r.Bind(n, sampleRef(n), false); err != nil {
			t.Fatal(err)
		}
	}
	names := r.List()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("list %v", names)
	}
	r.Unbind("b")
	r.Unbind("b") // idempotent
	if r.Len() != 2 {
		t.Fatalf("len %d", r.Len())
	}
}

func newServerAndResolver(t *testing.T) (*Server, *Resolver) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client := orb.NewClient()
	client.Timeout = 10 * time.Second
	t.Cleanup(client.Close)
	return srv, NewResolver(client, srv.Addr())
}

func TestRemoteBindResolveUnbind(t *testing.T) {
	_, res := newServerAndResolver(t)
	ref := sampleRef("diffusion")
	if err := res.Bind("example", ref, false); err != nil {
		t.Fatal(err)
	}
	got, err := res.Resolve("example", "")
	if err != nil {
		t.Fatal(err)
	}
	if got.TypeID != ref.TypeID || got.Endpoints[0] != ref.Endpoints[0] {
		t.Fatalf("resolved %+v", got)
	}
	// Typed resolve across the wire.
	if _, err := res.Resolve("example", "IDL:wrong:1.0"); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if err := res.Unbind("example"); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Resolve("example", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after unbind: %v", err)
	}
}

func TestRemoteNotFound(t *testing.T) {
	_, res := newServerAndResolver(t)
	if _, err := res.Resolve("ghost", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestRemoteAlreadyBound(t *testing.T) {
	_, res := newServerAndResolver(t)
	if err := res.Bind("dup", sampleRef("dup"), false); err != nil {
		t.Fatal(err)
	}
	err := res.Bind("dup", sampleRef("dup"), false)
	var ue *orb.UserException
	if !errors.As(err, &ue) || ue.RepoID != RepoAlreadyBound {
		t.Fatalf("got %v", err)
	}
}

func TestRemoteList(t *testing.T) {
	_, res := newServerAndResolver(t)
	for i := 0; i < 5; i++ {
		if err := res.Bind(fmt.Sprintf("obj-%d", i), sampleRef("x"), false); err != nil {
			t.Fatal(err)
		}
	}
	names, err := res.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 || names[0] != "obj-0" || names[4] != "obj-4" {
		t.Fatalf("list %v", names)
	}
}

func TestServerRef(t *testing.T) {
	srv, _ := newServerAndResolver(t)
	ref := srv.Ref()
	if ref.TypeID != TypeID || string(ref.Key) != string(Key) || len(ref.Endpoints) != 1 {
		t.Fatalf("ref %+v", ref)
	}
}

func TestConcurrentRemoteClients(t *testing.T) {
	srv, _ := newServerAndResolver(t)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := orb.NewClient()
			client.Timeout = 10 * time.Second
			defer client.Close()
			res := NewResolver(client, srv.Addr())
			name := fmt.Sprintf("client-%d", i)
			if err := res.Bind(name, sampleRef(name), false); err != nil {
				errs[i] = err
				return
			}
			got, err := res.Resolve(name, "")
			if err != nil {
				errs[i] = err
				return
			}
			if got.TypeID != "IDL:test/"+name+":1.0" {
				errs[i] = fmt.Errorf("wrong ref %v", got.TypeID)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if srv.Len() != 8 {
		t.Fatalf("registry has %d entries", srv.Len())
	}
}

func TestSplitHostPort(t *testing.T) {
	for _, tt := range []struct {
		addr, host string
		port       int
	}{{"127.0.0.1:8080", "127.0.0.1", 8080}, {"nohost", "nohost", 0}, {"[::1]:8080", "::1", 8080}} {
		if h, p := orb.SplitHostPort(tt.addr); h != tt.host || p != tt.port {
			t.Fatalf("SplitHostPort(%q) = %q %d, want %q %d", tt.addr, h, p, tt.host, tt.port)
		}
	}
}

// echoServer hosts one echo object under key and returns (server, ref).
func echoServer(t *testing.T, key []byte, typeID string) (*orb.Server, orb.IOR) {
	t.Helper()
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(key, orb.ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
		msg, err := in.ReadString()
		if err != nil {
			return orb.Marshal(err)
		}
		out.WriteString(msg)
		return nil
	}))
	ref := orb.IOR{TypeID: typeID, Key: key, Threads: 1, Endpoints: []orb.Endpoint{srv.Endpoint(0)}}
	return srv, ref
}

func TestRebinderRecoversFromStaleIOR(t *testing.T) {
	ns, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	const typeID = "IDL:test/echo:1.0"
	key := []byte("echo")
	srvA, refA := echoServer(t, key, typeID)
	if err := ns.Bind("echo", refA, false); err != nil {
		t.Fatal(err)
	}

	client := orb.NewClient()
	client.Timeout = 5 * time.Second
	defer client.Close()
	rb := NewRebinder(client, ns.Addr())

	call := func(msg string) (string, error) {
		args := orb.NewArgEncoder()
		args.WriteString(msg)
		reply, err := rb.Invoke("echo", typeID, "echo", args.Bytes())
		if err != nil {
			return "", err
		}
		d, err := orb.ArgDecoder(reply)
		if err != nil {
			return "", err
		}
		return d.ReadString()
	}

	if got, err := call("one"); err != nil || got != "one" {
		t.Fatalf("first call: %q, %v", got, err)
	}

	// The server "moves": old endpoint dies, a replacement comes up on a
	// fresh port and re-registers the name.
	srvA.Close()
	srvB, refB := echoServer(t, key, typeID)
	defer srvB.Close()
	if err := ns.Bind("echo", refB, true); err != nil {
		t.Fatal(err)
	}

	// The rebinder's cached IOR is now stale; the invocation must recover
	// transparently via re-resolution.
	if got, err := call("two"); err != nil || got != "two" {
		t.Fatalf("post-move call: %q, %v", got, err)
	}
}

func TestRebinderDoesNotMaskUserErrors(t *testing.T) {
	ns, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	srv, err2 := orb.NewServer("127.0.0.1:0")
	if err2 != nil {
		t.Fatal(err2)
	}
	defer srv.Close()
	key := []byte("grumpy")
	srv.Register(key, orb.ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
		return &orb.UserException{RepoID: "IDL:test/No:1.0", Message: "no"}
	}))
	ref := orb.IOR{TypeID: "IDL:test/grumpy:1.0", Key: key, Threads: 1, Endpoints: []orb.Endpoint{srv.Endpoint(0)}}
	if err := ns.Bind("grumpy", ref, false); err != nil {
		t.Fatal(err)
	}
	client := orb.NewClient()
	client.Timeout = 5 * time.Second
	defer client.Close()
	rb := NewRebinder(client, ns.Addr())
	_, err = rb.Invoke("grumpy", "", "poke", orb.NewArgEncoder().Bytes())
	var ue *orb.UserException
	if !errors.As(err, &ue) || ue.RepoID != "IDL:test/No:1.0" {
		t.Fatalf("user exception lost: %v", err)
	}
}
