package wire

import (
	"errors"
	"testing"

	"repro/internal/cdr"
)

func TestEncodeHeaderExtWithoutTraceMatchesOldFormat(t *testing.T) {
	for _, ord := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		for _, more := range []bool{false, true} {
			var b [MaxHeaderLen]byte
			n := EncodeHeaderExt(&b, MsgReply, ord, more, false, 123, 999)
			if n != HeaderLen {
				t.Fatalf("traceless header used %d bytes, want %d", n, HeaderLen)
			}
			old := EncodeHeader(MsgReply, ord, more, 123)
			if [HeaderLen]byte(b[:HeaderLen]) != old {
				t.Fatalf("traceless EncodeHeaderExt diverges from EncodeHeader:\n% x\n% x", b[:HeaderLen], old)
			}
		}
	}
}

func TestTraceExtRoundTrip(t *testing.T) {
	for _, ord := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		for _, trace := range []uint64{0, 1, 0xdeadbeef, 1<<64 - 1} {
			var b [MaxHeaderLen]byte
			n := EncodeHeaderExt(&b, MsgData, ord, true, true, 4096, trace)
			if n != MaxHeaderLen {
				t.Fatalf("traced header used %d bytes, want %d", n, MaxHeaderLen)
			}
			h, err := DecodeHeader(b[:HeaderLen])
			if err != nil {
				t.Fatalf("traced header rejected: %v", err)
			}
			if !h.HasTrace() || h.ExtLen() != TraceExtLen {
				t.Fatalf("trace flag lost: %+v", h)
			}
			if h.Type != MsgData || !h.More() || h.Size != 4096 || h.Order() != ord {
				t.Fatalf("traced header corrupted the fixed fields: %+v", h)
			}
			if got := TraceExt(b[HeaderLen:MaxHeaderLen], ord); got != trace {
				t.Fatalf("trace ext (%v) = %#x, want %#x", ord, got, trace)
			}
		}
	}
}

func TestOldFormatHeaderStillDecodes(t *testing.T) {
	// A sender that does not stamp trace context: no trace flag, no
	// extension.
	b := EncodeHeader(MsgRequest, cdr.BigEndian, false, 77)
	h, err := DecodeHeader(b[:])
	if err != nil {
		t.Fatalf("untraced header rejected: %v", err)
	}
	if h.HasTrace() || h.ExtLen() != 0 || h.Trace != 0 {
		t.Fatalf("untraced header grew a trace: %+v", h)
	}
	if h.Type != MsgRequest || h.Size != 77 {
		t.Fatalf("untraced header misdecoded: %+v", h)
	}
}

func TestReservedFlagBitsStillRejected(t *testing.T) {
	b := EncodeHeader(MsgRequest, cdr.BigEndian, false, 0)
	b[5] |= 1 << 4 // first still-reserved bit above the stream-chunk flag
	if _, err := DecodeHeader(b[:]); !errors.Is(err, ErrBadFlags) {
		t.Fatalf("reserved bit accepted: %v", err)
	}
}

func TestRequestIDOf(t *testing.T) {
	withID := []Message{
		&Request{RequestID: 11},
		&Reply{RequestID: 12},
		&CancelRequest{RequestID: 13},
		&LocateRequest{RequestID: 14},
		&LocateReply{RequestID: 15},
		&Data{RequestID: 16},
	}
	for i, m := range withID {
		id, ok := RequestIDOf(m)
		if !ok || id != uint32(11+i) {
			t.Fatalf("RequestIDOf(%T) = %d, %v", m, id, ok)
		}
	}
	for _, m := range []Message{&CloseConnection{}, &MessageError{}, &Fragment{}, &Ping{Nonce: 1}, &Pong{Nonce: 1}} {
		if id, ok := RequestIDOf(m); ok || id != 0 {
			t.Fatalf("RequestIDOf(%T) = %d, %v, want 0, false", m, id, ok)
		}
	}
}
