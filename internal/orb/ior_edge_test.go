package orb

import (
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/cdr"
)

// TestIOROldFormatStillParses pins backward compatibility with references
// written before multi-profile support: their encapsulation simply ends after
// the endpoint list, with no alternate-profile count. The parser must accept
// them as zero-alternate references, and re-stringifying must produce a
// reference the current format round-trips.
func TestIOROldFormatStillParses(t *testing.T) {
	// Hand-build the pre-multi-profile encoding: byte-order octet, then an
	// encapsulation of {type id, key, threads, endpoints} and nothing more.
	e := cdr.NewEncoder(cdr.NativeOrder)
	e.WriteOctet(byte(cdr.NativeOrder))
	e.WriteEncapsulation(func(inner *cdr.Encoder) {
		inner.WriteString("IDL:test/old:1.0")
		inner.WriteOctets([]byte("legacy"))
		inner.WriteULong(2) // threads
		inner.WriteULong(2) // endpoint count
		inner.WriteString("hostA")
		inner.WriteULong(1000)
		inner.WriteULong(0)
		inner.WriteString("hostA")
		inner.WriteULong(1001)
		inner.WriteULong(1)
	})
	old := "IOR:" + hex.EncodeToString(e.Bytes())

	ref, err := ParseIOR(old)
	if err != nil {
		t.Fatalf("old-format reference rejected: %v", err)
	}
	want := IOR{
		TypeID:  "IDL:test/old:1.0",
		Key:     []byte("legacy"),
		Threads: 2,
		Endpoints: []Endpoint{
			{Host: "hostA", Port: 1000, Rank: 0},
			{Host: "hostA", Port: 1001, Rank: 1},
		},
	}
	if !reflect.DeepEqual(ref, want) {
		t.Fatalf("old-format parse:\n got %+v\nwant %+v", ref, want)
	}
	if len(ref.Alternates) != 0 {
		t.Fatalf("old-format reference grew alternates: %+v", ref.Alternates)
	}
	// Re-stringified, it becomes a current-format reference with an explicit
	// zero alternate count — and must still describe the same object.
	again, err := ParseIOR(ref.String())
	if err != nil || !reflect.DeepEqual(again, want) {
		t.Fatalf("re-stringified old reference:\n got %+v, %v\nwant %+v", again, err, want)
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
