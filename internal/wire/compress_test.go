package wire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cdr"
)

// The Ping/Pong body is the nonce alone, in both byte orders, and anything
// shorter is a decode error.

func TestPingPongRoundTrip(t *testing.T) {
	for _, ord := range []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian} {
		for _, nonce := range []uint32{0xfeedbeef, 7} {
			ping := &Ping{Nonce: nonce}
			e := cdr.NewEncoder(ord)
			ping.EncodeBody(e)
			m, err := DecodeBody(MsgPing, e.Bytes(), ord)
			if err != nil {
				t.Fatalf("ord %v: %v", ord, err)
			}
			if got := m.(*Ping); *got != *ping {
				t.Fatalf("ord %v: ping %+v != %+v", ord, got, ping)
			}
			// The Pong echoing it has the same body.
			pong := &Pong{Nonce: nonce}
			e = cdr.NewEncoder(ord)
			pong.EncodeBody(e)
			m, err = DecodeBody(MsgPong, e.Bytes(), ord)
			if err != nil {
				t.Fatalf("ord %v: %v", ord, err)
			}
			if gp := m.(*Pong); *gp != *pong {
				t.Fatalf("ord %v: pong %+v != %+v", ord, gp, pong)
			}
		}
	}
}

// TestPingPongGolden pins the probe body byte for byte, so the next format
// change is a visible diff.
func TestPingPongGolden(t *testing.T) {
	want := []byte{0x50, 0x4d, 0x4f, 0x43}
	for _, m := range []Message{&Ping{Nonce: 0x434f4d50}, &Pong{Nonce: 0x434f4d50}} {
		e := cdr.NewEncoder(cdr.LittleEndian)
		m.EncodeBody(e)
		if !bytes.Equal(e.Bytes(), want) {
			t.Fatalf("%v body % x, want % x", m.Type(), e.Bytes(), want)
		}
	}
	frame := Encode(&Ping{Nonce: 1}, cdr.BigEndian)
	if want := []byte{'P', 'D', 'I', 'S', 9, 0, 7, 0, 0, 0, 0, 4, 0, 0, 0, 1}; !bytes.Equal(frame, want) {
		t.Fatalf("keepalive frame % x, want % x", frame, want)
	}
}

func TestPingPongShortBodyRejected(t *testing.T) {
	e := cdr.NewEncoder(cdr.LittleEndian)
	(&Ping{Nonce: 42}).EncodeBody(e)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		for _, typ := range []MsgType{MsgPing, MsgPong} {
			if _, err := DecodeBody(typ, full[:cut], cdr.LittleEndian); !errors.Is(err, cdr.ErrTruncated) {
				t.Fatalf("%v body cut to %d of %d bytes: err = %v, want truncation", typ, cut, len(full), err)
			}
		}
	}
}

// TestDataReservedBitsAboveCompressedStillRejected checks that the bits above
// the one PGIOP 6 spent on its compressed-payload flag stayed reserved when
// that flag was retired.
func TestDataReservedBitsAboveCompressedStillRejected(t *testing.T) {
	d := &Data{RequestID: 1, Count: 1, Flags: 1 << 3, Payload: []byte{0}}
	e := cdr.NewEncoder(cdr.LittleEndian)
	d.EncodeBody(e)
	if _, err := DecodeBody(MsgData, e.Bytes(), cdr.LittleEndian); err == nil {
		t.Fatal("Data body with reserved flag bit 3 decoded without error")
	}
}
