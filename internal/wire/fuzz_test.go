package wire

import (
	"testing"

	"repro/internal/cdr"
)

// FuzzDecodeHeader throws arbitrary bytes at the header parser. Any input
// must produce a Header or an error — never a panic — and an accepted
// header must carry a valid type and round-trip through EncodeHeader.
func FuzzDecodeHeader(f *testing.F) {
	good := EncodeHeader(MsgRequest, cdr.LittleEndian, false, 16)
	f.Add(good[:])
	big := EncodeHeader(MsgData, cdr.BigEndian, false, 1<<20)
	f.Add(big[:])
	f.Add([]byte("PDIS"))                                 // truncated
	f.Add([]byte("GIOP\x01\x00\x00\x00\x00\x00\x00\x00")) // wrong protocol
	f.Add([]byte("PDIS\x08\x01\x00\x00\x10\x00\x00\x00")) // version 8: refused
	f.Add([]byte("PDIS\x09\x03\x06\x00\x00\x00\x00\x40")) // a Data frame announcing more fragments: refused
	// Each reserved flag bit: refused.
	for bit := 1; bit < 8; bit++ {
		b := EncodeHeader(MsgData, cdr.LittleEndian, false, 64)
		b[5] |= 1 << bit
		f.Add(b[:])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := DecodeHeader(b)
		if err != nil {
			return
		}
		if !h.Type.Valid() {
			t.Fatalf("accepted header with invalid type %d", h.Type)
		}
		re := EncodeHeader(h.Type, h.Order(), false, int(h.Size))
		if rh, err := DecodeHeader(re[:]); err != nil || rh != h {
			t.Fatalf("header %+v does not round-trip: %+v, %v", h, rh, err)
		}
	})
}

// FuzzDecodeBody drives every message body decoder with arbitrary bytes.
// The first two input bytes select the message type and byte order so the
// fuzzer can reach all decoders from a single corpus.
func FuzzDecodeBody(f *testing.F) {
	for _, m := range []Message{
		&Request{RequestID: 1, ResponseExpected: true, ObjectKey: []byte("key"), Operation: "op", Args: []byte("abcd")},
		&Reply{RequestID: 2, Status: ReplyNoException, Args: []byte("efgh")},
		&Reply{RequestID: 3, Status: ReplySystemException, Args: []byte("ijkl")},
		&LocateRequest{RequestID: 4, ObjectKey: []byte("key")},
		&LocateReply{RequestID: 5, Status: LocateHere},
		&CloseConnection{},
		&MessageError{},
		&LocateReply{RequestID: 5, Status: LocateUnknown},
		&Data{RequestID: 6, ArgIndex: 1, SrcRank: 2, DstRank: 3, DstOff: 4, Count: 2, Payload: []byte("xyzw")},
		&Data{RequestID: 9, ArgIndex: 0, DstOff: 8192, Count: 4, Flags: DataFlagChunk, Payload: []byte("chnk")},
		&Data{RequestID: 10, ArgIndex: 2, DstOff: 0, Count: 4, Reply: true, Flags: DataFlagChunk | DataFlagLast, Payload: []byte("last")},
		&Data{RequestID: 11, ArgIndex: 0, DstOff: 0, Count: 8, Flags: DataFlagChunk, Payload: []byte{0x02, 0x02, 0x08, 0x3f}},
		&Ping{Nonce: 7},
		&Pong{Nonce: 8},
		// "COMP" is a nonce like any other: no nonce is reserved.
		&Ping{Nonce: 0x434f4d50},
		&Pong{Nonce: 0x434f4d50},
	} {
		e := cdr.NewEncoder(cdr.NativeOrder)
		m.EncodeBody(e)
		f.Add([]byte{byte(m.Type()), byte(cdr.NativeOrder)}, e.Bytes())
	}
	f.Add([]byte{byte(MsgPing), 1}, []byte{7, 0, 0, 0, 9}) // a byte past the nonce
	f.Add([]byte{byte(MsgPong), 1}, []byte{7, 0, 0})       // nonce cut short

	f.Fuzz(func(t *testing.T, sel, body []byte) {
		if len(sel) < 2 {
			return
		}
		typ := MsgType(sel[0] % byte(numMsgTypes))
		ord := cdr.ByteOrder(sel[1] & 1)
		m, err := DecodeBody(typ, body, ord)
		if err != nil {
			return
		}
		if m.Type() != typ {
			t.Fatalf("decoded %v from a %v body", m.Type(), typ)
		}
		// An accepted body must survive re-encoding.
		e := cdr.NewEncoder(ord)
		m.EncodeBody(e)
	})
}
