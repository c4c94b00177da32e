package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cdr"
)

var bothOrders = []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian}

func roundTrip(t *testing.T, m Message, ord cdr.ByteOrder) Message {
	t.Helper()
	frame := Encode(m, ord)
	h, err := DecodeHeader(frame[:HeaderLen])
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if h.Type != m.Type() {
		t.Fatalf("type %v, want %v", h.Type, m.Type())
	}
	if h.Order() != ord {
		t.Fatalf("order %v, want %v", h.Order(), ord)
	}
	if int(h.Size) != len(frame)-HeaderLen {
		t.Fatalf("size %d, body %d", h.Size, len(frame)-HeaderLen)
	}
	got, err := DecodeBody(h.Type, frame[HeaderLen:], h.Order())
	if err != nil {
		t.Fatalf("body: %v", err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	for _, ord := range bothOrders {
		in := &Request{
			RequestID:        42,
			ResponseExpected: true,
			ObjectKey:        []byte{1, 2, 3, 0xFF},
			Operation:        "diffusion",
			Principal:        "client@example",
			Args:             []byte{9, 9, 9},
		}
		got := roundTrip(t, in, ord).(*Request)
		if !reflect.DeepEqual(in, got) {
			t.Fatalf("%v: %+v != %+v", ord, got, in)
		}
	}
}

func TestRequestEmptyFields(t *testing.T) {
	in := &Request{Operation: "op"}
	got := roundTrip(t, in, cdr.NativeOrder).(*Request)
	if got.Operation != "op" || got.ResponseExpected || len(got.Args) != 0 || len(got.ObjectKey) != 0 {
		t.Fatalf("%+v", got)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	for _, st := range []ReplyStatus{ReplyNoException, ReplyUserException, ReplySystemException} {
		in := &Reply{RequestID: 7, Status: st, Args: []byte("payload")}
		got := roundTrip(t, in, cdr.BigEndian).(*Reply)
		if !reflect.DeepEqual(in, got) {
			t.Fatalf("%v: %+v", st, got)
		}
	}
}

// TestReplyBadStatus refuses every status past the last defined one: the
// retired LOCATION_FORWARD (3) of a Reply and LocateForward (2) of a
// LocateReply among them.
func TestReplyBadStatus(t *testing.T) {
	for _, m := range []Message{
		&Reply{RequestID: 1, Status: ReplySystemException + 1},
		&Reply{RequestID: 1, Status: ReplyStatus(9)},
		&LocateReply{RequestID: 1, Status: LocateHere + 1},
	} {
		e := cdr.NewEncoder(cdr.NativeOrder)
		m.EncodeBody(e)
		if _, err := DecodeBody(m.Type(), e.Bytes(), cdr.NativeOrder); !errors.Is(err, ErrBadBody) {
			t.Fatalf("%+v: want ErrBadBody, got %v", m, err)
		}
	}
}

func TestLocateRoundTrip(t *testing.T) {
	lr := roundTrip(t, &LocateRequest{RequestID: 5, ObjectKey: []byte("key")}, cdr.BigEndian).(*LocateRequest)
	if lr.RequestID != 5 || string(lr.ObjectKey) != "key" {
		t.Fatalf("locate request %+v", lr)
	}
	for _, st := range []LocateStatus{LocateUnknown, LocateHere} {
		lp := roundTrip(t, &LocateReply{RequestID: 6, Status: st}, cdr.LittleEndian).(*LocateReply)
		if *lp != (LocateReply{RequestID: 6, Status: st}) {
			t.Fatalf("locate reply %+v", lp)
		}
	}
}

func TestControlMessages(t *testing.T) {
	if _, ok := roundTrip(t, &CloseConnection{}, cdr.NativeOrder).(*CloseConnection); !ok {
		t.Fatal("close connection")
	}
	if _, ok := roundTrip(t, &MessageError{}, cdr.NativeOrder).(*MessageError); !ok {
		t.Fatal("message error")
	}
}

func TestDataRoundTrip(t *testing.T) {
	for _, ord := range bothOrders {
		in := &Data{
			RequestID: 1000,
			ArgIndex:  2,
			SrcRank:   3,
			DstRank:   7,
			DstOff:    1 << 40,
			Count:     12345,
			Reply:     true,
			Payload:   bytes.Repeat([]byte{0xCD}, 100),
		}
		got := roundTrip(t, in, ord).(*Data)
		if !reflect.DeepEqual(in, got) {
			t.Fatalf("%v: %+v", ord, got)
		}
	}
}

func TestHeaderValidation(t *testing.T) {
	good := Encode(&LocateRequest{RequestID: 1}, cdr.NativeOrder)

	short := good[:HeaderLen-1]
	if _, err := DecodeHeader(short); err == nil {
		t.Fatal("short header accepted")
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	if _, err := DecodeHeader(badMagic); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}

	// One version: its predecessor and its successor are refused alike.
	badVersion := append([]byte(nil), good...)
	for _, v := range []byte{0, Version - 1, Version + 1, 0xff} {
		badVersion[4] = v
		if _, err := DecodeHeader(badVersion); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: %v", v, err)
		}
	}

	// The first code past Pong — the last one v8 defined, freed when
	// Fragment's slot was closed up — is as unknown as any other.
	badType := append([]byte(nil), good...)
	for _, typ := range []byte{byte(MsgPong) + 1, 200} {
		badType[6] = typ
		if _, err := DecodeHeader(badType); !errors.Is(err, ErrBadType) {
			t.Fatalf("type %d: %v", typ, err)
		}
	}
}

// TestReservedFlagBitsStillRejected refuses each flag bit above the byte
// order, the one the header defines: bit 1, once "more fragments follow",
// among them.
func TestReservedFlagBitsStillRejected(t *testing.T) {
	for bit := 1; bit < 8; bit++ {
		b := EncodeHeader(MsgRequest, cdr.BigEndian, false, 0)
		b[5] |= 1 << bit
		if _, err := DecodeHeader(b[:]); !errors.Is(err, ErrBadFlags) {
			t.Fatalf("reserved bit %d accepted: %v", bit, err)
		}
	}
}

func TestHeaderSizeBothOrders(t *testing.T) {
	for _, ord := range bothOrders {
		h := EncodeHeader(MsgReply, ord, true, 0x01020304)
		got, err := DecodeHeader(h[:])
		if err != nil {
			t.Fatal(err)
		}
		if got.Size != 0x01020304 {
			t.Fatalf("%v: size %#x", ord, got.Size)
		}
		// The continuation argument is ignored: it sets no flag bit.
		if got.Flags&^FlagLittleEndian != 0 {
			t.Fatalf("%v: flags %#x beyond the byte order", ord, got.Flags)
		}
	}
}

func TestTruncatedBodies(t *testing.T) {
	msgs := []Message{
		&Request{RequestID: 1, Operation: "op", ObjectKey: []byte("k"), Args: []byte("a")},
		&Reply{RequestID: 1, Args: []byte("a")},
		&LocateRequest{RequestID: 1, ObjectKey: []byte("k")},
		&LocateReply{RequestID: 1},
		&Data{RequestID: 1, Payload: []byte("abc")},
	}
	for _, m := range msgs {
		e := cdr.NewEncoder(cdr.NativeOrder)
		m.EncodeBody(e)
		full := e.Bytes()
		for cut := 0; cut < len(full); cut++ {
			if _, err := DecodeBody(m.Type(), full[:cut], cdr.NativeOrder); err == nil {
				t.Fatalf("%v truncated at %d accepted", m.Type(), cut)
			}
		}
	}
}

func TestDecodeBodyNeverPanics(t *testing.T) {
	prop := func(tByte byte, body []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		DecodeBody(MsgType(tByte%byte(numMsgTypes)), body, cdr.LittleEndian)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if MsgRequest.String() != "Request" || MsgData.String() != "Data" {
		t.Fatal("message type names")
	}
	if MsgType(99).String() == "" {
		t.Fatal("unknown type name empty")
	}
	if MsgType(99).Valid() {
		t.Fatal("unknown type valid")
	}
	if ReplyUserException.String() != "USER_EXCEPTION" {
		t.Fatal("reply status name")
	}
	if ReplyStatus(12).String() == "" {
		t.Fatal("unknown reply status empty")
	}
}

func TestFuzzDecodeRandomFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		frame := make([]byte, rng.Intn(64))
		rng.Read(frame)
		if h, err := DecodeHeader(frame); err == nil {
			body := frame[HeaderLen:]
			DecodeBody(h.Type, body, h.Order()) // must not panic
		}
	}
}
