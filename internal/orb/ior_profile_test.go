package orb

import (
	"encoding/hex"
	"reflect"
	"testing"
)

func TestIORMultiProfileRoundTrip(t *testing.T) {
	ref := IOR{
		TypeID:  "IDL:test/rep:1.0",
		Key:     []byte("obj"),
		Threads: 2,
		Endpoints: []Endpoint{
			{Host: "hostA", Port: 1000, Rank: 0},
			{Host: "hostA", Port: 1001, Rank: 1},
		},
		Alternates: [][]Endpoint{
			{{Host: "hostB", Port: 2000, Rank: 0}, {Host: "hostB", Port: 2001, Rank: 1}},
			{{Host: "hostC", Port: 3000, Rank: 0}},
		},
	}
	got, err := ParseIOR(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, ref)
	}
	addrs, err := got.ProfileAddrs()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"hostA:1000", "hostB:2000", "hostC:3000"}
	if !reflect.DeepEqual(addrs, want) {
		t.Fatalf("profile addrs %v, want %v", addrs, want)
	}
}

func TestIORSingleProfileStillRoundTrips(t *testing.T) {
	ref := IOR{TypeID: "IDL:test/one:1.0", Key: []byte("k"), Threads: 1,
		Endpoints: []Endpoint{{Host: "h", Port: 9, Rank: 0}}}
	got, err := ParseIOR(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Alternates) != 0 {
		t.Fatalf("phantom alternates: %+v", got.Alternates)
	}
	addrs, err := got.ProfileAddrs()
	if err != nil || len(addrs) != 1 || addrs[0] != "h:9" {
		t.Fatalf("profile addrs %v, %v", addrs, err)
	}
}

func TestAddProfileDedupes(t *testing.T) {
	var ref IOR
	a := []Endpoint{{Host: "a", Port: 1, Rank: 0}}
	b := []Endpoint{{Host: "b", Port: 2, Rank: 0}}
	ref.AddProfile(a) // first profile becomes primary
	ref.AddProfile(b)
	ref.AddProfile(a) // duplicate of the primary
	ref.AddProfile(b) // duplicate of an alternate
	ref.AddProfile(nil)
	if len(ref.Endpoints) != 1 || ref.Endpoints[0].Host != "a" {
		t.Fatalf("primary %+v", ref.Endpoints)
	}
	if len(ref.Alternates) != 1 || ref.Alternates[0][0].Host != "b" {
		t.Fatalf("alternates %+v", ref.Alternates)
	}
}

// FuzzParseIOR throws arbitrary strings at the reference parser: any input
// must produce an IOR or an error — never a panic — and an accepted
// reference must survive a String→Parse round trip.
func FuzzParseIOR(f *testing.F) {
	seeds := []IOR{
		{TypeID: "IDL:t:1.0", Key: []byte("k"), Threads: 1,
			Endpoints: []Endpoint{{Host: "h", Port: 1, Rank: 0}}},
		{TypeID: "IDL:t:1.0", Key: []byte("k"), Threads: 2,
			Endpoints:  []Endpoint{{Host: "h", Port: 1, Rank: 0}, {Host: "h", Port: 2, Rank: 1}},
			Alternates: [][]Endpoint{{{Host: "i", Port: 3, Rank: 0}, {Host: "i", Port: 4, Rank: 1}}}},
		{}, // nil reference
	}
	for _, r := range seeds {
		f.Add(r.String())
	}
	f.Add("IOR:")
	f.Add("IOR:zz")
	f.Add("not-an-ior")
	// Strictness: a reference cut short by one byte or by its whole epoch,
	// and one with a byte too many, inside and outside the encapsulation.
	whole := seeds[1].String()
	raw, _ := hex.DecodeString(whole[len("IOR:"):])
	f.Add(whole[:len(whole)-2])
	f.Add(reencapsulate(raw[8 : len(raw)-1]))
	f.Add(reencapsulate(raw[8 : len(raw)-4]))
	f.Add(reencapsulate(append(raw[8:len(raw):len(raw)], 0)))
	f.Add(whole + "00")

	f.Fuzz(func(t *testing.T, s string) {
		ref, err := ParseIOR(s)
		if err != nil {
			return
		}
		again, err := ParseIOR(ref.String())
		if err != nil {
			t.Fatalf("accepted reference does not re-parse: %v", err)
		}
		if !reflect.DeepEqual(again, ref) {
			t.Fatalf("round trip changed the reference:\n got %+v\nwas %+v", again, ref)
		}
	})
}
