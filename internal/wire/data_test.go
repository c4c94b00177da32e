package wire

import (
	"bytes"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/cdr"
)

// TestDataPrefixOracle pins the EncodeBodyPrefix/EncodeBody split the
// transport's vectored write path depends on: the prefix is exactly
// DataPrefixLen bytes, and prefix ++ payload is byte-identical to the full
// body encoding.
func TestDataPrefixOracle(t *testing.T) {
	for _, ord := range bothOrders {
		for _, payload := range [][]byte{nil, {0xAB}, bytes.Repeat([]byte{0x5C}, 300)} {
			d := &Data{
				RequestID: 7, ArgIndex: 1, SrcRank: 2, DstRank: 3,
				DstOff: 99, Count: 11, Reply: true, Payload: payload,
			}
			pe := cdr.NewEncoder(ord)
			d.EncodeBodyPrefix(pe)
			if pe.Len() != DataPrefixLen {
				t.Fatalf("%v: prefix is %d bytes, want %d", ord, pe.Len(), DataPrefixLen)
			}
			be := cdr.NewEncoder(ord)
			d.EncodeBody(be)
			want := append(append([]byte{}, pe.Bytes()...), payload...)
			if !bytes.Equal(be.Bytes(), want) {
				t.Fatalf("%v: prefix+payload differs from EncodeBody", ord)
			}
		}
	}
}

// TestTailMessagesMatchFieldwiseEncoding pins the prefix/tail split for all
// three tail-carrying messages against the encoding written out field by
// field, tail included as an ordinary sequence<octet>: prefix ++ tail and
// EncodeBody must both be byte-identical to it, whatever the alignment the
// prefix ends on.
func TestTailMessagesMatchFieldwiseEncoding(t *testing.T) {
	for _, ord := range bothOrders {
		for _, tail := range [][]byte{nil, {0xAB}, bytes.Repeat([]byte{0x5C}, 300)} {
			for _, op := range []string{"", "o", "op", "ops"} { // every alignment before the count
				cases := []struct {
					m         TailMessage
					fieldwise func(e *cdr.Encoder)
				}{
					{&Request{RequestID: 7, ResponseExpected: true, ObjectKey: []byte("k"), Operation: op, Principal: "p", Args: tail},
						func(e *cdr.Encoder) {
							e.WriteULong(7)
							e.WriteBool(true)
							e.WriteOctets([]byte("k"))
							e.WriteString(op)
							e.WriteString("p")
							e.WriteOctets(tail)
						}},
					{&Reply{RequestID: 7, Status: ReplyUserException, Args: tail},
						func(e *cdr.Encoder) {
							e.WriteULong(7)
							e.WriteEnum(uint32(ReplyUserException))
							e.WriteOctets(tail)
						}},
					{&Data{RequestID: 7, ArgIndex: 1, SrcRank: 2, DstRank: 3, DstOff: 99, Count: 11, Reply: true, Flags: DataFlagChunk, Payload: tail},
						func(e *cdr.Encoder) {
							e.WriteULong(7)
							e.WriteULong(1)
							e.WriteULong(2)
							e.WriteULong(3)
							e.WriteULongLong(99)
							e.WriteULongLong(11)
							e.WriteBool(true)
							e.WriteOctet(DataFlagChunk)
							e.WriteOctets(tail)
						}},
				}
				for _, tc := range cases {
					want := cdr.NewEncoder(ord)
					tc.fieldwise(want)
					pe := cdr.NewEncoder(ord)
					tc.m.EncodeBodyPrefix(pe)
					split := append(append([]byte{}, pe.Bytes()...), tc.m.Tail()...)
					be := cdr.NewEncoder(ord)
					tc.m.EncodeBody(be)
					if !bytes.Equal(split, want.Bytes()) || !bytes.Equal(be.Bytes(), want.Bytes()) {
						t.Fatalf("%v %v op %q tail %d: prefix++tail or EncodeBody differs from the field-by-field encoding",
							ord, tc.m.Type(), op, len(tail))
					}
				}
			}
		}
	}
}

// TestDataRelease checks, against the real frame pool, the two things Release
// gives back. The frame goes back exactly once and takes the payload with it,
// and a Release on a message that was lent nothing is inert. The struct goes
// back too, so from then on the message is somebody else's: under
// GuardReleases, which keeps a released struct out of circulation, a second
// Release and a Chunked or LastChunk after Release panic every time. Reading a
// frame and releasing it allocates nothing once the pools are warm.
func TestDataRelease(t *testing.T) {
	GuardReleases(true)
	defer GuardReleases(false)
	returned := func() uint64 { return bufpool.Frames.Stats().Returns }
	owed := bufpool.Frames.Stats().Outstanding()
	built := &Data{Payload: []byte{1, 2, 3}}
	base := returned()
	built.Release() // nothing lent: no-op, as often as one likes
	built.Release()
	if returned() != base || built.Payload == nil || built.Chunked() {
		t.Fatal("Release without a lent frame returned something or dropped the payload")
	}

	e := cdr.NewEncoder(cdr.NativeOrder)
	(&Data{RequestID: 7, Count: 4, Flags: DataFlagChunk, Payload: bytes.Repeat([]byte{9}, 32)}).EncodeBody(e)
	read := func() *Data {
		frame := append(bufpool.Frames.Rent(e.Len()), e.Bytes()...)
		m, err := DecodeBody(MsgData, frame, cdr.NativeOrder)
		if err != nil {
			t.Fatal(err)
		}
		d := m.(*Data)
		d.Lend(frame)
		return d
	}
	d := read()
	if !d.Chunked() || d.LastChunk() || len(d.Payload) != 32 {
		t.Fatalf("decoded %+v", d)
	}
	d.Release()
	if got := returned() - base; got != 1 {
		t.Fatalf("frame returned %d times, want 1", got)
	}
	if d.Payload != nil || d.RequestID != 0 {
		t.Fatal("payload or fields survive Release")
	}
	for name, use := range map[string]func(){
		"second Release":          d.Release,
		"Chunked after Release":   func() { d.Chunked() },
		"LastChunk after Release": func() { d.LastChunk() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			use()
		}()
	}
	if got := returned() - base; got != 1 {
		t.Fatalf("a refused Release returned the frame again (%d returns)", got)
	}
	if got := bufpool.Frames.Stats().Outstanding(); got != owed {
		t.Fatalf("frame pool owes %d buffers, %d before", got, owed)
	}

	// Unguarded, the struct is recycled with its frame: the next read is handed
	// the one just released.
	GuardReleases(false)
	read().Release()
	if allocs := testing.AllocsPerRun(100, func() { read().Release() }); allocs != 0 {
		t.Fatalf("reading and releasing a Data frame allocates %.1f times on warm pools, want 0", allocs)
	}
}

// TestEncodeSingleBuffer checks Encode produces the same frame as a
// separately-encoded header and body, with the body aligned to its own
// origin rather than the frame start.
func TestEncodeSingleBuffer(t *testing.T) {
	for _, ord := range bothOrders {
		msgs := []Message{
			&Request{RequestID: 5, Operation: "op", Args: []byte{1, 2, 3}},
			&Data{RequestID: 9, Count: 2, DstOff: 1, Payload: []byte{7, 8}},
			&Reply{RequestID: 5, Status: ReplyNoException, Args: []byte{4}},
		}
		for _, m := range msgs {
			frame := Encode(m, ord)
			body := cdr.NewEncoder(ord)
			m.EncodeBody(body)
			h := EncodeHeader(m.Type(), ord, false, body.Len())
			want := append(append([]byte{}, h[:]...), body.Bytes()...)
			if !bytes.Equal(frame, want) {
				t.Fatalf("%v %v: single-buffer frame differs from header+body", ord, m.Type())
			}
		}
	}
}
