package wire

import (
	"errors"
	"testing"

	"repro/internal/cdr"
)

// TestDataChunkFlagsRoundTrip checks the chunk framing bits survive an
// encode/decode cycle and that the accessors reflect them.
func TestDataChunkFlagsRoundTrip(t *testing.T) {
	for _, ord := range bothOrders {
		for _, flags := range []byte{0, DataFlagChunk, DataFlagChunk | DataFlagLast} {
			d := &Data{RequestID: 7, ArgIndex: 2, DstOff: 65536, Count: 8192,
				Flags: flags, Payload: []byte{1, 2, 3, 4}}
			e := cdr.NewEncoder(ord)
			d.EncodeBody(e)
			m, err := DecodeBody(MsgData, e.Bytes(), ord)
			if err != nil {
				t.Fatalf("%v flags %#x: %v", ord, flags, err)
			}
			got := m.(*Data)
			if got.Flags != flags {
				t.Fatalf("%v: flags %#x decoded as %#x", ord, flags, got.Flags)
			}
			if got.Chunked() != (flags&DataFlagChunk != 0) || got.LastChunk() != (flags&DataFlagLast != 0) {
				t.Fatalf("%v: accessors disagree with flags %#x", ord, flags)
			}
		}
	}
}

// TestDataReservedFlagBitsRejected checks garbage in the flags octet is
// refused instead of silently accepted (only the chunk bits are defined).
func TestDataReservedFlagBitsRejected(t *testing.T) {
	d := &Data{RequestID: 1, Count: 1, Payload: []byte{1}}
	e := cdr.NewEncoder(cdr.NativeOrder)
	d.EncodeBody(e)
	body := append([]byte(nil), e.Bytes()...)
	body[33] = 0x80 // reserved bit in the Flags octet
	if _, err := DecodeBody(MsgData, body, cdr.NativeOrder); !errors.Is(err, ErrBadBody) {
		t.Fatalf("reserved Data flag bits accepted (err=%v)", err)
	}
}
