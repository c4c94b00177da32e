package orb

import (
	"errors"
	"testing"

	"repro/internal/wire"
)

func TestArgPayloadRoundTrip(t *testing.T) {
	e := NewArgEncoder()
	e.WriteLong(7)
	e.WriteDouble(1.5)
	e.WriteString("abc")
	d, err := ArgDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := d.ReadLong(); err != nil || v != 7 {
		t.Fatalf("long %v %v", v, err)
	}
	if v, err := d.ReadDouble(); err != nil || v != 1.5 {
		t.Fatalf("double %v %v", v, err)
	}
	if v, err := d.ReadString(); err != nil || v != "abc" {
		t.Fatalf("string %q %v", v, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", d.Remaining())
	}
}

func TestArgDecoderEmptyAndBadFlag(t *testing.T) {
	d, err := ArgDecoder(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatal("empty payload not exhausted")
	}
	if _, err := ArgDecoder([]byte{7, 1, 2}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestArgPayloadAlignmentMatchesEncapsulation(t *testing.T) {
	// A double written right after the flag octet must land 8-aligned
	// relative to the payload start, like an encapsulation body.
	e := NewArgEncoder()
	e.WriteDouble(2.25)
	buf := e.Bytes()
	if len(buf) != 16 { // 1 flag + 7 pad + 8 value
		t.Fatalf("payload length %d", len(buf))
	}
	d, err := ArgDecoder(buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := d.ReadDouble(); err != nil || v != 2.25 {
		t.Fatalf("%v %v", v, err)
	}
}

func TestExceptionEncodingRoundTrip(t *testing.T) {
	// User exception through the reply path.
	out := NewArgEncoder()
	status := encodeException(out, &UserException{RepoID: "IDL:E:1.0", Message: "m", Payload: []byte{1, 2}})
	if status != wire.ReplyUserException {
		t.Fatalf("status %v", status)
	}
	err := decodeException(status, out.Bytes())
	var ue *UserException
	if !errors.As(err, &ue) || ue.RepoID != "IDL:E:1.0" || len(ue.Payload) != 2 {
		t.Fatalf("%v", err)
	}

	// System exception.
	out = NewArgEncoder()
	status = encodeException(out, &SystemException{RepoID: RepoTimeout, Minor: 3, Message: "slow"})
	if status != wire.ReplySystemException {
		t.Fatalf("status %v", status)
	}
	err = decodeException(status, out.Bytes())
	var se *SystemException
	if !errors.As(err, &se) || se.RepoID != RepoTimeout || se.Minor != 3 {
		t.Fatalf("%v", err)
	}

	// Plain errors become INTERNAL system exceptions.
	out = NewArgEncoder()
	status = encodeException(out, errors.New("whoops"))
	if status != wire.ReplySystemException {
		t.Fatalf("status %v", status)
	}
	err = decodeException(status, out.Bytes())
	if !errors.As(err, &se) || se.RepoID != RepoInternal {
		t.Fatalf("%v", err)
	}
}

func TestDecodeExceptionCorrupt(t *testing.T) {
	if err := decodeException(wire.ReplyUserException, []byte{0}); err == nil {
		t.Fatal("truncated exception accepted")
	}
	if err := decodeException(wire.ReplyStatus(9), NewArgEncoder().Bytes()); err == nil {
		t.Fatal("bogus status accepted")
	}
}

func TestStandardExceptionBuilders(t *testing.T) {
	if BadOperation("x").RepoID != RepoBadOperation {
		t.Fatal("BadOperation repo id")
	}
	if ObjectNotExist([]byte("k")).RepoID != RepoObjectNotExist {
		t.Fatal("ObjectNotExist repo id")
	}
	if Marshal(errors.New("m")).RepoID != RepoMarshal {
		t.Fatal("Marshal repo id")
	}
}

func TestEndpointAddr(t *testing.T) {
	ep := Endpoint{Host: "10.1.2.3", Port: 81, Rank: 2}
	if ep.Addr() != "10.1.2.3:81" {
		t.Fatalf("addr %q", ep.Addr())
	}
}
