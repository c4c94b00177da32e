package orb

import (
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cdr"
)

// Endpoint is one network attachment point of an object. A conventional
// object has exactly one; an SPMD object exporting multi-port transfer has
// one per computing thread ("these connections become a part of the object
// reference for this particular object", paper §3.3).
type Endpoint struct {
	Host string
	Port int
	Rank int // computing thread this endpoint belongs to
}

// Addr renders the endpoint as a dialable host:port, bracketing an IPv6
// literal host.
func (e Endpoint) Addr() string { return net.JoinHostPort(e.Host, strconv.Itoa(e.Port)) }

// SplitHostPort is Addr's inverse: the bare host (an IPv6 literal loses its
// brackets) and the port of a host:port address. An address without a port
// is all host.
func SplitHostPort(addr string) (string, int) {
	host, p, err := net.SplitHostPort(addr)
	if err != nil {
		return addr, 0
	}
	port, _ := strconv.Atoi(p)
	return host, port
}

// IOR is a PARDIS interoperable object reference: everything a client needs
// to reach an object. Threads records the number of computing threads of an
// SPMD object (1 for conventional objects); Endpoints lists the reachable
// ports, always including the communicating thread's endpoint (rank 0)
// first.
type IOR struct {
	TypeID    string // repository id, e.g. "IDL:diff_object:1.0"
	Key       []byte // object key in the server's adapter
	Threads   int
	Endpoints []Endpoint
	// Alternates lists additional profiles — endpoint sets of replicas
	// serving the same object. Clients try the primary profile (Endpoints)
	// first and fail over, profile by profile, through Alternates. Each
	// replica must accept the same object key.
	Alternates [][]Endpoint
	// Epoch is the membership epoch of an elastic SPMD object: every resize
	// republishes a refreshed reference with the next epoch, and requests
	// tagged with a stale epoch are refused in a re-resolvable way. 0 marks
	// a conventional (non-elastic) reference.
	Epoch int
}

// Errors reported by reference handling.
var (
	ErrBadIOR = errors.New("orb: malformed object reference")
)

// Nil reports whether the reference is the nil object reference.
func (r IOR) Nil() bool { return len(r.Endpoints) == 0 }

// Primary returns the communicating thread's endpoint.
func (r IOR) Primary() (Endpoint, error) {
	if r.Nil() {
		return Endpoint{}, fmt.Errorf("%w: nil reference", ErrBadIOR)
	}
	return r.Endpoints[0], nil
}

// Profiles returns every endpoint set of the reference, primary first.
func (r IOR) Profiles() [][]Endpoint {
	out := make([][]Endpoint, 0, 1+len(r.Alternates))
	out = append(out, r.Endpoints)
	out = append(out, r.Alternates...)
	return out
}

// ProfileAddrs returns the primary (rank-0 communicating thread) address of
// each profile, in failover order.
func (r IOR) ProfileAddrs() ([]string, error) {
	if r.Nil() {
		return nil, fmt.Errorf("%w: nil reference", ErrBadIOR)
	}
	addrs := make([]string, 0, 1+len(r.Alternates))
	addrs = append(addrs, r.Endpoints[0].Addr())
	for _, alt := range r.Alternates {
		if len(alt) == 0 {
			continue
		}
		addrs = append(addrs, alt[0].Addr())
	}
	return addrs, nil
}

// Narrowed returns the reference narrowed to each of its profiles, in
// ProfileAddrs order: one reference per replica, holding that profile's
// endpoints alone.
func (r IOR) Narrowed() []IOR {
	one := r
	one.Alternates = nil
	out := []IOR{one}
	for _, alt := range r.Alternates {
		if len(alt) > 0 {
			one.Endpoints = alt
			out = append(out, one)
		}
	}
	return out
}

// dedupeEndpoints drops exact repeats (host, port, rank) from a profile,
// preserving order. Repeated replica announcements may accumulate the same
// endpoint several times; carrying the duplicates would inflate anything
// derived from the profile (the Multiport check above all).
func dedupeEndpoints(eps []Endpoint) []Endpoint {
	out := eps[:0:0]
	for _, e := range eps {
		dup := false
		for _, seen := range out {
			if seen == e {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e)
		}
	}
	return out
}

// sameEndpointSet reports whether two profiles name the same endpoints,
// ignoring order. Two SPMD ranks of one replica announcing the same group
// produce rotations of one endpoint list; they are the same profile.
func sameEndpointSet(a, b []Endpoint) bool {
	if len(a) != len(b) {
		return false
	}
	for _, ea := range a {
		found := false
		for _, eb := range b {
			if ea == eb {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// AddProfile merges another replica's endpoint set into the reference:
//
//   - duplicate endpoints inside the announcement are dropped;
//   - a profile sharing an existing profile's primary address replaces it
//     (re-registration refreshes the membership instead of being ignored,
//     so a replica that restarts with new data ports is picked up);
//   - a profile whose endpoint set equals an existing profile's — in any
//     order — is skipped (another rank of a known replica announcing).
//
// Only genuinely new profiles append, so repeated replica announcements
// cannot inflate the profile list (or the failover walk over it).
func (r *IOR) AddProfile(eps []Endpoint) {
	eps = dedupeEndpoints(eps)
	if len(eps) == 0 {
		return
	}
	addr := eps[0].Addr()
	if len(r.Endpoints) == 0 {
		r.Endpoints = eps
		return
	}
	if r.Endpoints[0].Addr() == addr {
		r.Endpoints = eps
		return
	}
	for i, alt := range r.Alternates {
		if len(alt) > 0 && alt[0].Addr() == addr {
			r.Alternates[i] = eps
			return
		}
	}
	if sameEndpointSet(r.Endpoints, eps) {
		return
	}
	for _, alt := range r.Alternates {
		if sameEndpointSet(alt, eps) {
			return
		}
	}
	r.Alternates = append(r.Alternates, eps)
}

// hasEndpoint reports whether host:port is an endpoint of any of the
// reference's profiles.
func (r IOR) hasEndpoint(host string, port int) bool {
	at := func(eps []Endpoint) bool {
		return slices.ContainsFunc(eps, func(e Endpoint) bool { return e.Host == host && e.Port == port })
	}
	return at(r.Endpoints) || slices.ContainsFunc(r.Alternates, at)
}

// EndpointFor returns the endpoint serving the given computing thread, or
// an error if the reference does not expose one (centralized-only exports
// expose only rank 0).
func (r IOR) EndpointFor(rank int) (Endpoint, error) {
	for _, e := range r.Endpoints {
		if e.Rank == rank {
			return e, nil
		}
	}
	return Endpoint{}, fmt.Errorf("%w: no endpoint for computing thread %d", ErrBadIOR, rank)
}

// Multiport reports whether the reference exposes one endpoint per thread,
// i.e. supports the multi-port transfer method.
func (r IOR) Multiport() bool {
	if r.Threads < 1 || len(r.Endpoints) < r.Threads {
		return false
	}
	seen := make(map[int]bool, r.Threads)
	for _, e := range r.Endpoints {
		seen[e.Rank] = true
	}
	for t := 0; t < r.Threads; t++ {
		if !seen[t] {
			return false
		}
	}
	return true
}

// Encode writes the reference as a CDR encapsulation.
func (r IOR) Encode(e *cdr.Encoder) {
	e.WriteEncapsulation(func(inner *cdr.Encoder) {
		inner.WriteString(r.TypeID)
		inner.WriteOctets(r.Key)
		inner.WriteULong(uint32(r.Threads))
		writeEndpoints(inner, r.Endpoints)
		inner.WriteULong(uint32(len(r.Alternates)))
		for _, alt := range r.Alternates {
			writeEndpoints(inner, alt)
		}
		inner.WriteULong(uint32(r.Epoch))
	})
}

func writeEndpoints(e *cdr.Encoder, eps []Endpoint) {
	e.WriteULong(uint32(len(eps)))
	for _, ep := range eps {
		e.WriteString(ep.Host)
		e.WriteULong(uint32(ep.Port))
		e.WriteULong(uint32(ep.Rank))
	}
}

func readEndpoints(d *cdr.Decoder, what string) ([]Endpoint, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("%w: %s count: %v", ErrBadIOR, what, err)
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: implausible %s count %d", ErrBadIOR, what, n)
	}
	eps := make([]Endpoint, n)
	for i := range eps {
		if eps[i].Host, err = d.ReadString(); err != nil {
			return nil, fmt.Errorf("%w: %s %d host: %v", ErrBadIOR, what, i, err)
		}
		port, err := d.ReadULong()
		if err != nil {
			return nil, fmt.Errorf("%w: %s %d port: %v", ErrBadIOR, what, i, err)
		}
		rank, err := d.ReadULong()
		if err != nil {
			return nil, fmt.Errorf("%w: %s %d rank: %v", ErrBadIOR, what, i, err)
		}
		eps[i].Port = int(port)
		eps[i].Rank = int(rank)
	}
	return eps, nil
}

// DecodeIOR reads a reference written by Encode.
func DecodeIOR(d *cdr.Decoder) (IOR, error) {
	inner, err := d.ReadEncapsulation()
	if err != nil {
		return IOR{}, fmt.Errorf("%w: %v", ErrBadIOR, err)
	}
	var r IOR
	if r.TypeID, err = inner.ReadString(); err != nil {
		return IOR{}, fmt.Errorf("%w: type id: %v", ErrBadIOR, err)
	}
	if r.Key, err = inner.ReadOctets(); err != nil {
		return IOR{}, fmt.Errorf("%w: key: %v", ErrBadIOR, err)
	}
	threads, err := inner.ReadULong()
	if err != nil {
		return IOR{}, fmt.Errorf("%w: threads: %v", ErrBadIOR, err)
	}
	if threads > 1<<20 {
		return IOR{}, fmt.Errorf("%w: implausible thread count %d", ErrBadIOR, threads)
	}
	r.Threads = int(threads)
	if r.Endpoints, err = readEndpoints(inner, "endpoint"); err != nil {
		return IOR{}, err
	}
	nalt, err := inner.ReadULong()
	if err != nil {
		return IOR{}, fmt.Errorf("%w: profile count: %v", ErrBadIOR, err)
	}
	if nalt > 1<<10 {
		return IOR{}, fmt.Errorf("%w: implausible profile count %d", ErrBadIOR, nalt)
	}
	for i := 0; i < int(nalt); i++ {
		alt, err := readEndpoints(inner, "alternate endpoint")
		if err != nil {
			return IOR{}, err
		}
		r.Alternates = append(r.Alternates, alt)
	}
	epoch, err := inner.ReadULong()
	if err != nil {
		return IOR{}, fmt.Errorf("%w: epoch: %v", ErrBadIOR, err)
	}
	if epoch > 1<<30 {
		return IOR{}, fmt.Errorf("%w: implausible epoch %d", ErrBadIOR, epoch)
	}
	r.Epoch = int(epoch)
	if n := inner.Remaining(); n != 0 {
		return IOR{}, fmt.Errorf("%w: %d bytes after the epoch", ErrBadIOR, n)
	}
	return r, nil
}

// String renders the stringified reference, "IOR:" + hex, the form users
// pass between processes (exactly like CORBA's object_to_string).
func (r IOR) String() string {
	e := cdr.NewEncoder(cdr.NativeOrder)
	// The stringified form embeds its own byte-order octet so any process
	// can parse it.
	e.WriteOctet(byte(cdr.NativeOrder))
	r.Encode(e)
	return "IOR:" + hex.EncodeToString(e.Bytes())
}

// ParseIOR parses a stringified reference produced by String.
func ParseIOR(s string) (IOR, error) {
	if !strings.HasPrefix(s, "IOR:") {
		return IOR{}, fmt.Errorf("%w: missing IOR: prefix", ErrBadIOR)
	}
	raw, err := hex.DecodeString(s[len("IOR:"):])
	if err != nil {
		return IOR{}, fmt.Errorf("%w: %v", ErrBadIOR, err)
	}
	if len(raw) < 1 {
		return IOR{}, fmt.Errorf("%w: empty body", ErrBadIOR)
	}
	if raw[0] > 1 {
		return IOR{}, fmt.Errorf("%w: byte-order flag %d", ErrBadIOR, raw[0])
	}
	d := cdr.NewDecoder(raw, cdr.ByteOrder(raw[0]))
	if _, err := d.ReadOctet(); err != nil {
		return IOR{}, fmt.Errorf("%w: %v", ErrBadIOR, err)
	}
	r, err := DecodeIOR(d)
	if err == nil && d.Remaining() != 0 {
		return IOR{}, fmt.Errorf("%w: %d bytes after the reference", ErrBadIOR, d.Remaining())
	}
	return r, err
}
