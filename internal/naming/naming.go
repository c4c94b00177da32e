// Package naming implements the PARDIS naming domain: the service that maps
// object names to object references, which _bind and _spmd_bind consult
// ("PARDIS provides a naming domain for objects. At the time of binding the
// client has to identify which particular object of a given type it wants to
// work with; specifying a host is optional", paper §2.1).
//
// The name server is itself a PARDIS object served through the ordinary ORB
// machinery (object key "NameService", type id TypeID), so the naming
// protocol exercises the same request path as application objects — the same
// bootstrap trick CORBA uses for its initial services.
//
// Names are qualified by type: a registration binds (name → IOR), and
// resolution can constrain the expected type id so a client binding a
// diff_object proxy cannot accidentally receive an unrelated object.
package naming

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cdr"
	"repro/internal/orb"
)

// TypeID is the repository id of the naming service itself.
const TypeID = "IDL:PARDIS/NameService:1.0"

// Key is the well-known object key of the naming service.
var Key = []byte("NameService")

// Exception repository ids raised by the service.
const (
	RepoNotFound     = "IDL:PARDIS/NameService/NotFound:1.0"
	RepoAlreadyBound = "IDL:PARDIS/NameService/AlreadyBound:1.0"
	RepoTypeMismatch = "IDL:PARDIS/NameService/TypeMismatch:1.0"
)

// ErrNotFound is returned by Resolve when the name is unbound. The remote
// Resolve wraps the wire-level user exception with it for ergonomic errors.Is
// checks.
var ErrNotFound = errors.New("naming: name not bound")

// Registry is the in-memory name table; it is the servant state of a name
// server and usable directly for in-process naming.
type Registry struct {
	mu    sync.RWMutex
	table map[string]orb.IOR
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{table: make(map[string]orb.IOR)}
}

// Bind registers name → ref. Rebinding an existing name fails unless
// replace is set.
func (r *Registry) Bind(name string, ref orb.IOR, replace bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.table[name]; ok && !replace {
		return &orb.UserException{RepoID: RepoAlreadyBound, Message: name}
	}
	r.table[name] = ref
	return nil
}

// Resolve looks up name. If wantType is non-empty the bound reference must
// carry that type id.
func (r *Registry) Resolve(name, wantType string) (orb.IOR, error) {
	r.mu.RLock()
	ref, ok := r.table[name]
	r.mu.RUnlock()
	if !ok {
		return orb.IOR{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if wantType != "" && ref.TypeID != wantType {
		return orb.IOR{}, &orb.UserException{
			RepoID:  RepoTypeMismatch,
			Message: fmt.Sprintf("%q is %s, want %s", name, ref.TypeID, wantType),
		}
	}
	return ref, nil
}

// BindReplica registers ref as one replica of name: the first registration
// binds normally, and subsequent registrations merge the replica's endpoint
// set into the existing binding as alternate profiles (deduplicated by
// primary address). All replicas must share a type id and object key;
// mismatches raise TypeMismatch. Clients that resolve the name receive a
// multi-profile reference and fail over between replicas transparently.
func (r *Registry) BindReplica(name string, ref orb.IOR) error {
	if ref.Nil() {
		return &orb.UserException{RepoID: RepoTypeMismatch, Message: name + ": nil replica reference"}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.table[name]
	if !ok {
		r.table[name] = ref
		return nil
	}
	if cur.TypeID != ref.TypeID {
		return &orb.UserException{
			RepoID:  RepoTypeMismatch,
			Message: fmt.Sprintf("%q is %s, replica is %s", name, cur.TypeID, ref.TypeID),
		}
	}
	if string(cur.Key) != string(ref.Key) {
		return &orb.UserException{
			RepoID:  RepoTypeMismatch,
			Message: fmt.Sprintf("%q: replica object key %q does not match %q", name, ref.Key, cur.Key),
		}
	}
	for _, prof := range ref.Profiles() {
		cur.AddProfile(prof)
	}
	r.table[name] = cur
	return nil
}

// Unbind removes a name; it is not an error if the name is unbound.
func (r *Registry) Unbind(name string) {
	r.mu.Lock()
	delete(r.table, name)
	r.mu.Unlock()
}

// List returns the bound names in sorted order.
func (r *Registry) List() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.table))
	for n := range r.table {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Len returns the number of bindings.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.table)
}

// Dispatch implements orb.Servant, exposing the registry's operations over
// the wire: bind(name, ior, replace), resolve(name, type) → ior,
// unbind(name), list() → sequence<string>.
func (r *Registry) Dispatch(op string, in *cdr.Decoder, out *cdr.Encoder) error {
	switch op {
	case "bind":
		name, err := in.ReadString()
		if err != nil {
			return orb.Marshal(err)
		}
		iorStr, err := in.ReadString()
		if err != nil {
			return orb.Marshal(err)
		}
		replace, err := in.ReadBool()
		if err != nil {
			return orb.Marshal(err)
		}
		ref, err := orb.ParseIOR(iorStr)
		if err != nil {
			return orb.Marshal(err)
		}
		return r.Bind(name, ref, replace)
	case "bind_replica":
		name, err := in.ReadString()
		if err != nil {
			return orb.Marshal(err)
		}
		iorStr, err := in.ReadString()
		if err != nil {
			return orb.Marshal(err)
		}
		ref, err := orb.ParseIOR(iorStr)
		if err != nil {
			return orb.Marshal(err)
		}
		return r.BindReplica(name, ref)
	case "resolve":
		name, err := in.ReadString()
		if err != nil {
			return orb.Marshal(err)
		}
		wantType, err := in.ReadString()
		if err != nil {
			return orb.Marshal(err)
		}
		ref, err := r.Resolve(name, wantType)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				return &orb.UserException{RepoID: RepoNotFound, Message: name}
			}
			return err
		}
		out.WriteString(ref.String())
		return nil
	case "unbind":
		name, err := in.ReadString()
		if err != nil {
			return orb.Marshal(err)
		}
		r.Unbind(name)
		return nil
	case "list":
		names := r.List()
		out.WriteULong(uint32(len(names)))
		for _, n := range names {
			out.WriteString(n)
		}
		return nil
	default:
		return orb.BadOperation(op)
	}
}

// Server is a running name server: an ORB server hosting a Registry.
type Server struct {
	*Registry
	srv *orb.Server
}

// NewServer starts a name server on addr (port 0 for ephemeral).
func NewServer(addr string) (*Server, error) {
	srv, err := orb.NewServer(addr)
	if err != nil {
		return nil, err
	}
	reg := NewRegistry()
	srv.Register(Key, reg)
	return &Server{Registry: reg, srv: srv}, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Ref returns the service's own object reference.
func (s *Server) Ref() orb.IOR {
	return orb.IOR{TypeID: TypeID, Key: Key, Threads: 1, Endpoints: []orb.Endpoint{s.srv.Endpoint(0)}}
}

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

// Resolver is a client handle on a remote name server.
type Resolver struct {
	client *orb.Client
	ref    orb.IOR
}

// NewResolver builds a resolver that talks to the name server at addr using
// the given client engine.
func NewResolver(client *orb.Client, addr string) *Resolver {
	host, port := orb.SplitHostPort(addr)
	return &Resolver{
		client: client,
		ref: orb.IOR{TypeID: TypeID, Key: Key, Threads: 1,
			Endpoints: []orb.Endpoint{{Host: host, Port: port, Rank: 0}}},
	}
}

// Bind registers name → ref at the remote server.
func (r *Resolver) Bind(name string, ref orb.IOR, replace bool) error {
	args := orb.NewArgEncoder()
	args.WriteString(name)
	args.WriteString(ref.String())
	args.WriteBool(replace)
	_, err := r.client.Invoke(r.ref, "bind", args.Bytes(), false)
	return err
}

// BindReplica registers ref as one replica of name at the remote server:
// replicas registered under the same name are merged into a single
// multi-profile reference that resolves clients onto any live replica.
func (r *Resolver) BindReplica(name string, ref orb.IOR) error {
	args := orb.NewArgEncoder()
	args.WriteString(name)
	args.WriteString(ref.String())
	_, err := r.client.Invoke(r.ref, "bind_replica", args.Bytes(), false)
	return err
}

// Resolve looks name up at the remote server, optionally constraining the
// type id. A NotFound user exception answers errors.Is(err, ErrNotFound) and
// stays in the chain, so it is still that exception wherever the error is
// re-encoded (core shares it between SPMD threads).
func (r *Resolver) Resolve(name, wantType string) (orb.IOR, error) {
	args := orb.NewArgEncoder()
	args.WriteString(name)
	args.WriteString(wantType)
	replyArgs, err := r.client.Invoke(r.ref, "resolve", args.Bytes(), false)
	if err != nil {
		var ue *orb.UserException
		if errors.As(err, &ue) && ue.RepoID == RepoNotFound {
			return orb.IOR{}, fmt.Errorf("%w: %w", ErrNotFound, err)
		}
		return orb.IOR{}, err
	}
	d, err := orb.ArgDecoder(replyArgs)
	if err != nil {
		return orb.IOR{}, err
	}
	s, err := d.ReadString()
	if err != nil {
		return orb.IOR{}, err
	}
	return orb.ParseIOR(s)
}

// Unbind removes name at the remote server.
func (r *Resolver) Unbind(name string) error {
	args := orb.NewArgEncoder()
	args.WriteString(name)
	_, err := r.client.Invoke(r.ref, "unbind", args.Bytes(), false)
	return err
}

// List fetches the sorted bound names from the remote server.
func (r *Resolver) List() ([]string, error) {
	replyArgs, err := r.client.Invoke(r.ref, "list", orb.NewArgEncoder().Bytes(), false)
	if err != nil {
		return nil, err
	}
	d, err := orb.ArgDecoder(replyArgs)
	if err != nil {
		return nil, err
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	names := make([]string, n)
	for i := range names {
		if names[i], err = d.ReadString(); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// Stale reports whether err looks like a stale object reference: the
// endpoint is gone, the connection died, or the object key is no longer
// served there. These are the failures where re-resolving the name through
// the naming domain can transparently recover (the server re-registered
// after moving hosts or restarting on a new port).
func Stale(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, orb.ErrConnBroken) || errors.Is(err, orb.ErrInvokeTimeout) {
		return true
	}
	var se *orb.SystemException
	if errors.As(err, &se) {
		switch se.RepoID {
		case orb.RepoComm, orb.RepoObjectNotExist:
			return true
		}
	}
	return false
}

// Rebinder is a self-healing handle on named objects: it resolves names
// lazily, caches the resulting references, and when an invocation fails in
// a way that suggests the cached IOR went stale (Stale), it re-resolves the
// name and retries the invocation once against the fresh reference. This is
// the client-side half of server mobility: a server that re-registers its
// name after restarting on a new endpoint is picked up without client
// involvement.
type Rebinder struct {
	res *Resolver

	mu    sync.Mutex
	cache map[string]orb.IOR
}

// NewRebinder builds a rebinder over the name server at addr using the
// given client engine (shared with the Resolver and the invocations).
func NewRebinder(client *orb.Client, addr string) *Rebinder {
	return &Rebinder{res: NewResolver(client, addr), cache: make(map[string]orb.IOR)}
}

// Resolve returns the cached reference for name, consulting the name
// server only on a cache miss.
func (rb *Rebinder) Resolve(name, wantType string) (orb.IOR, error) {
	rb.mu.Lock()
	ref, ok := rb.cache[name]
	rb.mu.Unlock()
	if ok {
		return ref, nil
	}
	return rb.refresh(name, wantType)
}

// refresh re-resolves name and replaces the cache entry.
func (rb *Rebinder) refresh(name, wantType string) (orb.IOR, error) {
	ref, err := rb.res.Resolve(name, wantType)
	if err != nil {
		return orb.IOR{}, err
	}
	rb.mu.Lock()
	rb.cache[name] = ref
	rb.mu.Unlock()
	return ref, nil
}

// Invalidate drops the cached reference for name, forcing the next Resolve
// to consult the name server.
func (rb *Rebinder) Invalidate(name string) {
	rb.mu.Lock()
	delete(rb.cache, name)
	rb.mu.Unlock()
}

// Invoke performs a request/reply invocation on the named object,
// re-resolving and retrying once when the cached reference is stale.
func (rb *Rebinder) Invoke(name, wantType, op string, args []byte) ([]byte, error) {
	ref, err := rb.Resolve(name, wantType)
	if err != nil {
		return nil, err
	}
	reply, err := rb.res.client.Invoke(ref, op, args, false)
	if !Stale(err) {
		return reply, err
	}
	// The reference may be stale; rebind through the naming domain and
	// retry once. A second failure is the caller's problem.
	rb.Invalidate(name)
	fresh, rerr := rb.refresh(name, wantType)
	if rerr != nil || fresh.String() == ref.String() {
		return nil, err
	}
	return rb.res.client.Invoke(fresh, op, args, false)
}
