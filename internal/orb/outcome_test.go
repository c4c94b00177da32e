package orb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/obs"
	"repro/internal/wire"
)

// outcomeCases are the four kinds an outcome can be, the exceptions with every
// field set and wrapped the way callers hand them over.
func outcomeCases() map[string]error {
	return map[string]error{
		"ok":     nil,
		"user":   fmt.Errorf("op failed: %w", &UserException{RepoID: "IDL:x:1.0", Message: "boom", Payload: []byte{1, 2, 3}}),
		"system": &SystemException{RepoID: RepoComm, Minor: 7, Message: "net"},
		"other":  errors.New("plain problem"),
	}
}

func encodedOutcome(err error) []byte {
	e := cdr.NewEncoder(cdr.NativeOrder)
	EncodeOutcome(e, err)
	return e.Bytes()
}

// sameOutcome reports how got differs from what want must decode as: the same
// concrete type with the same repository id, minor, message and payload for an
// exception, the same text for anything else, nil for nil.
func sameOutcome(got, want error) error {
	var wu, gu *UserException
	var ws, gs *SystemException
	switch {
	case want == nil:
		if got != nil {
			return fmt.Errorf("ok decoded as %v", got)
		}
	case errors.As(want, &wu):
		if gu, _ = got.(*UserException); gu == nil || gu.RepoID != wu.RepoID || gu.Message != wu.Message || !bytes.Equal(gu.Payload, wu.Payload) {
			return fmt.Errorf("user exception %+v decoded as %T %+v", wu, got, got)
		}
	case errors.As(want, &ws):
		if gs, _ = got.(*SystemException); gs == nil || *gs != *ws {
			return fmt.Errorf("system exception %+v decoded as %T %+v", ws, got, got)
		}
	default:
		if errors.As(got, &gu) || errors.As(got, &gs) || got == nil || got.Error() != want.Error() {
			return fmt.Errorf("plain error %q decoded as %T %v", want, got, got)
		}
	}
	return nil
}

// TestOutcomeCodec round-trips every outcome kind, refuses an unknown kind and
// every truncation of every encoding, and pins the reply bodies — the same
// fields without the kind octet — to the bytes the wire has always carried.
func TestOutcomeCodec(t *testing.T) {
	for name, in := range outcomeCases() {
		full := encodedOutcome(in)
		d := cdr.NewDecoder(full, cdr.NativeOrder)
		out, err := DecodeOutcome(d)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if err := sameOutcome(out, in); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if d.Remaining() != 0 {
			t.Errorf("%s: %d bytes left after the outcome", name, d.Remaining())
		}
		for cut := 0; cut < len(full); cut++ {
			if _, err := DecodeOutcome(cdr.NewDecoder(full[:cut], cdr.NativeOrder)); err == nil {
				t.Errorf("%s: truncation at %d of %d accepted", name, cut, len(full))
			}
		}
	}
	if _, err := DecodeOutcome(cdr.NewDecoder([]byte{99}, cdr.NativeOrder)); err == nil {
		t.Error("unknown outcome kind accepted")
	}

	// What follows the outcome is the caller's: the decoder stops on it.
	e := cdr.NewEncoder(cdr.NativeOrder)
	EncodeOutcome(e, nil)
	e.WriteRaw([]byte("payload"))
	d := cdr.NewDecoder(e.Bytes(), cdr.NativeOrder)
	if out, err := DecodeOutcome(d); out != nil || err != nil || d.Remaining() != len("payload") {
		t.Errorf("ok + payload: outcome %v, err %v, %d bytes left", out, err, d.Remaining())
	}

	golden := []struct {
		err    error
		status wire.ReplyStatus
		body   string // little-endian host
	}{
		{&UserException{RepoID: "IDL:E:1.0", Message: "m", Payload: []byte{1, 2}}, wire.ReplyUserException,
			"\x01\x00\x00\x00\x0a\x00\x00\x00IDL:E:1.0\x00\x00\x00\x02\x00\x00\x00m\x00\x00\x00\x02\x00\x00\x00\x01\x02"},
		{&SystemException{RepoID: RepoTimeout, Minor: 3, Message: "slow"}, wire.ReplySystemException,
			"\x01\x00\x00\x00\x17\x00\x00\x00IDL:PARDIS/TIMEOUT:1.0\x00\x00\x03\x00\x00\x00\x05\x00\x00\x00slow\x00"},
	}
	for _, g := range golden {
		out := NewArgEncoder()
		if status := encodeException(out, g.err); status != g.status {
			t.Errorf("%v: status %v, want %v", g.err, status, g.status)
		}
		if cdr.NativeOrder == cdr.LittleEndian && string(out.Bytes()) != g.body {
			t.Errorf("%v: reply body\n got %q\nwant %q", g.err, out.Bytes(), g.body)
		}
		if err := sameOutcome(decodeException(g.status, out.Bytes()), g.err); err != nil {
			t.Errorf("reply body: %v", err)
		}
	}
}

// FuzzDecodeOutcome throws arbitrary bytes at the one decoder that reads both
// exceptional reply bodies off the wire and the outcomes SPMD threads exchange:
// it must never panic, and whatever it accepts must survive an encode→decode
// round trip with its type, repository id, minor, message and payload intact.
func FuzzDecodeOutcome(f *testing.F) {
	for _, in := range outcomeCases() {
		full := encodedOutcome(in)
		f.Add(full)
		for cut := 1; cut < len(full); cut += 3 {
			f.Add(full[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		out, err := DecodeOutcome(cdr.NewDecoder(p, cdr.NativeOrder))
		if err != nil {
			return
		}
		again, err := DecodeOutcome(cdr.NewDecoder(encodedOutcome(out), cdr.NativeOrder))
		if err != nil {
			t.Fatalf("accepted outcome %v does not re-decode: %v", out, err)
		}
		if err := sameOutcome(again, out); err != nil {
			t.Fatal(err)
		}
		// The same bytes behind a byte-order octet are a reply body.
		if len(p) > 0 && (p[0] == outcomeUser || p[0] == outcomeSystem) {
			_ = decodeException(wire.ReplyStatus(p[0]), append([]byte{byte(cdr.NativeOrder)}, p[1:]...))
		}
	})
}

// TestMetricsEndpointServesSnapshot drives ServerOptions.MetricsAddr with no
// registry supplied: the server serves one of its own, a GET returns the JSON
// snapshot with the call just made in it, and Shutdown closes the port.
func TestMetricsEndpointServesSnapshot(t *testing.T) {
	srv, err := NewServerOpts("127.0.0.1:0", ServerOptions{MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	key := []byte("echo")
	srv.Register(key, ServantFunc(func(string, *cdr.Decoder, *cdr.Encoder) error { return nil }))
	c := NewClient()
	defer c.Close()
	ref := IOR{TypeID: "IDL:test/echo:1.0", Key: key, Threads: 1, Endpoints: []Endpoint{srv.Endpoint(0)}}
	if _, err := c.Invoke(ref, "poke", NewArgEncoder().Bytes(), false); err != nil {
		t.Fatal(err)
	}

	addr := srv.MetricsEndpoint()
	if addr == "" {
		t.Fatal("no metrics endpoint")
	}
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	if err != nil {
		t.Fatalf("snapshot is not JSON: %v", err)
	}
	if n := snap.Pulled["orb.server.dispatched"]; n < 1 {
		t.Errorf("orb.server.dispatched = %d after one call, want >= 1 (snapshot %+v)", n, snap)
	}
	if _, ok := snap.Histograms["orb.server.handle_ns"]; !ok {
		t.Errorf("no orb.server.handle_ns histogram in %+v", snap)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Errorf("metrics port %s still open after Shutdown", addr)
	}
}
