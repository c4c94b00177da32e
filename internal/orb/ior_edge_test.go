package orb

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cdr"
)

// reencapsulate renders a stringified reference whose encapsulation body is
// inner, with a consistent length: what a writer that left fields out, or
// added some, would produce.
func reencapsulate(inner []byte) string {
	e := cdr.NewEncoder(cdr.NativeOrder)
	e.WriteOctet(byte(cdr.NativeOrder))
	e.WriteOctets(inner)
	return "IOR:" + hex.EncodeToString(e.Bytes())
}

// TestIORTruncatedAndTrailingRejected pins that every field of a reference
// is required and nothing may follow the last: a reference cut short anywhere
// — after the endpoint list, after the alternates, inside the epoch — or
// carrying extra bytes is malformed, never a valid reference with defaults.
func TestIORTruncatedAndTrailingRejected(t *testing.T) {
	ref := IOR{
		TypeID:  "IDL:test/strict:1.0",
		Key:     []byte("strict"),
		Threads: 2,
		Endpoints: []Endpoint{
			{Host: "hostA", Port: 1000, Rank: 0},
			{Host: "hostA", Port: 1001, Rank: 1},
		},
		Epoch: 3,
	}
	full := ref.String()
	if got, err := ParseIOR(full); err != nil || !reflect.DeepEqual(got, ref) {
		t.Fatalf("setup: %+v, %v", got, err)
	}
	raw, err := hex.DecodeString(full[len("IOR:"):])
	if err != nil {
		t.Fatal(err)
	}
	// Order octet, padding, encapsulation length: the body starts at 8 and
	// ends with the alternates count and the epoch, four bytes each.
	inner := raw[8:]
	for cut := 1; cut <= len(inner); cut++ {
		if got, err := ParseIOR(reencapsulate(inner[:len(inner)-cut])); !errors.Is(err, ErrBadIOR) {
			t.Fatalf("encapsulation short by %d bytes parsed as %+v (err=%v)", cut, got, err)
		}
	}
	for cut := 1; cut < len(raw); cut++ {
		if _, err := ParseIOR("IOR:" + hex.EncodeToString(raw[:len(raw)-cut])); !errors.Is(err, ErrBadIOR) {
			t.Fatalf("reference short by %d bytes accepted (err=%v)", cut, err)
		}
	}
	if _, err := ParseIOR(reencapsulate(append(append([]byte(nil), inner...), 0))); !errors.Is(err, ErrBadIOR) {
		t.Fatalf("byte after the epoch accepted (err=%v)", err)
	}
	if _, err := ParseIOR(full + "00"); !errors.Is(err, ErrBadIOR) {
		t.Fatalf("byte after the encapsulation accepted (err=%v)", err)
	}
}

// TestIORZeroAndEmptyAlternates pins the two degenerate profile shapes: an
// explicit zero-alternate reference stays free of phantom profiles through
// the wire, and an empty alternate profile (zero endpoints) survives the
// round trip but is skipped by failover address selection rather than
// yielding a bogus address or a panic.
func TestIORZeroAndEmptyAlternates(t *testing.T) {
	ref := IOR{
		TypeID:     "IDL:test/empty:1.0",
		Key:        []byte("k"),
		Threads:    1,
		Endpoints:  []Endpoint{{Host: "h", Port: 9, Rank: 0}},
		Alternates: [][]Endpoint{},
	}
	got, err := ParseIOR(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Alternates) != 0 {
		t.Fatalf("zero-alternate reference grew profiles: %+v", got.Alternates)
	}

	ref.Alternates = [][]Endpoint{{}, {{Host: "i", Port: 10, Rank: 0}}}
	got, err = ParseIOR(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Alternates) != 2 || len(got.Alternates[0]) != 0 || len(got.Alternates[1]) != 1 {
		t.Fatalf("alternate shapes changed in flight: %+v", got.Alternates)
	}
	addrs, err := got.ProfileAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"h:9", "i:10"}; !reflect.DeepEqual(addrs, want) {
		t.Fatalf("profile addrs %v, want %v (empty profile skipped)", addrs, want)
	}
}

// TestIORDuplicateEndpointsPreserved pins that the wire codec is a faithful
// carrier: profiles that repeat an address — within one profile or across
// profiles — are transported verbatim. Deduplication is AddProfile's policy
// at assembly time, not the parser's; a reference built elsewhere may repeat
// addresses deliberately (e.g. one host serving two ranks).
func TestIORDuplicateEndpointsPreserved(t *testing.T) {
	ref := IOR{
		TypeID:  "IDL:test/dup:1.0",
		Key:     []byte("d"),
		Threads: 2,
		Endpoints: []Endpoint{
			{Host: "h", Port: 7, Rank: 0},
			{Host: "h", Port: 7, Rank: 1}, // same address serving both ranks
		},
		Alternates: [][]Endpoint{
			{{Host: "h", Port: 7, Rank: 0}}, // duplicates the primary address
			{{Host: "h", Port: 7, Rank: 0}}, // and again
		},
	}
	got, err := ParseIOR(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("duplicate endpoints not preserved:\n got %+v\nwant %+v", got, ref)
	}
	addrs, err := got.ProfileAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"h:7", "h:7", "h:7"}; !reflect.DeepEqual(addrs, want) {
		t.Fatalf("profile addrs %v, want %v", addrs, want)
	}
	// AddProfile applied to the parsed reference must still dedupe: the
	// policy layer sees through what the codec faithfully carried.
	before := len(got.Alternates)
	got.AddProfile([]Endpoint{{Host: "h", Port: 7, Rank: 0}})
	if len(got.Alternates) != before {
		t.Fatalf("AddProfile accepted a duplicate primary address: %+v", got.Alternates)
	}
}

// TestIORIPv6LiteralRoundTrip pins the endpoint address rule for IPv6: an IOR
// carries the bare literal, Addr brackets it for the dialer (a plain
// "host:port" join is not dialable), SplitHostPort strips the brackets again,
// and the reference survives stringification. Where the box has an IPv6
// loopback the reference is also served and invoked end to end, including the
// per-leg data connection a streamed transfer resolves.
func TestIORIPv6LiteralRoundTrip(t *testing.T) {
	ep := Endpoint{Host: "::1", Port: 9047, Rank: 0}
	if got := ep.Addr(); got != "[::1]:9047" {
		t.Fatalf("Addr() = %q, want [::1]:9047", got)
	}
	if h, p := SplitHostPort(ep.Addr()); h != ep.Host || p != ep.Port {
		t.Fatalf("SplitHostPort(%q) = %q %d", ep.Addr(), h, p)
	}
	ref := IOR{TypeID: "IDL:test/v6:1.0", Key: []byte("k"), Threads: 1, Endpoints: []Endpoint{ep}}
	back, err := ParseIOR(ref.String())
	if err != nil || !reflect.DeepEqual(back, ref) {
		t.Fatalf("round trip:\n got %+v, %v\nwant %+v", back, err, ref)
	}

	s, err := NewServer("[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback here: %v", err)
	}
	defer s.Close()
	s.Register(ref.Key, &echoServant{})
	if ref.Endpoints[0] = s.Endpoint(0); ref.Endpoints[0].Host != "::1" {
		t.Fatalf("server endpoint host %q, want the bare literal", ref.Endpoints[0].Host)
	}
	live, err := ParseIOR(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t)
	if ok, err := c.Locate(live); err != nil || !ok {
		t.Fatalf("Locate over IPv6: %v %v", ok, err)
	}
	if _, err := c.DataConn(live, 0); err != nil {
		t.Fatalf("DataConn over IPv6: %v", err)
	}
	if c.NumConns() != 1 {
		t.Fatalf("DataConn dialed a second connection: %d", c.NumConns())
	}
}
