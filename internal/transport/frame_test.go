package transport

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cdr"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// pgiop8Fragment is the type code PGIOP 8 gave its Fragment message; PGIOP 9
// gives it to Data.
const pgiop8Fragment = wire.MsgType(6)

// fragments cuts m's one-frame encoding into n frames the way a PGIOP 8 writer
// split a body over its fragment threshold: the leading frame keeps the
// message's type, the others carry the old Fragment code, and every frame but
// the last sets flag bit 1, "more fragments follow". PGIOP 9 defines neither,
// so a reader refuses such a stream at its first header.
func fragments(m wire.Message, n int) [][]byte {
	body := wire.Encode(m, cdr.NativeOrder)[wire.HeaderLen:]
	per := (len(body) + n - 1) / n
	var out [][]byte
	for i := 0; i < n; i++ {
		piece := body[i*per : min((i+1)*per, len(body))]
		t := m.Type()
		if i > 0 {
			t = pgiop8Fragment
		}
		h := wire.EncodeHeader(t, cdr.NativeOrder, false, len(piece))
		if i < n-1 {
			h[5] |= 1 << 1
		}
		out = append(out, append(h[:], piece...))
	}
	return out
}

// readOne reads the first message of a captured stream.
func readOne(stream []byte, max int) (wire.Message, error) {
	c := NewConn(&byteStream{r: bytes.NewReader(stream)}, nil)
	if max > 0 {
		c.max = max
	}
	return c.ReadMessage()
}

// tailOfSize returns the tail that makes m's body exactly size bytes.
func tailOfSize(t *testing.T, mk func(tail []byte) wire.Message, size int) wire.Message {
	t.Helper()
	e := cdr.NewEncoder(cdr.NativeOrder)
	mk(nil).EncodeBody(e)
	if size < e.Len() {
		t.Fatalf("body of %d bytes cannot fit a %d-byte prefix", size, e.Len())
	}
	tail := make([]byte, size-e.Len())
	for i := range tail {
		tail[i] = byte(i*7 + 1)
	}
	return mk(tail)
}

// TestFragmentedRequestReplyExactBody reads Request and Reply messages of the
// sizes a 64-byte fragment threshold cut into 1, 2 and 17 frames. Written
// whole, each is one frame, read into a rented frame and decoded with the
// original contents; its tail is clipped to its length, so an append to it
// cannot run into the rest of the frame, and the frame goes back to the pool
// on the message's Release. Cut into frames the way a PGIOP 8 writer did it,
// the same message is refused at its first header.
func TestFragmentedRequestReplyExactBody(t *testing.T) {
	const frag = 64
	kinds := map[string]func(tail []byte) wire.Message{
		"request": func(tail []byte) wire.Message {
			return &wire.Request{RequestID: 9, ResponseExpected: true, ObjectKey: []byte("key"), Operation: "op", Args: tail}
		},
		"reply": func(tail []byte) wire.Message {
			return &wire.Reply{RequestID: 9, Status: wire.ReplyNoException, Args: tail}
		},
	}
	for name, mk := range kinds {
		for _, nfrag := range []int{1, 2, 17} {
			t.Run(fmt.Sprintf("%s/%d", name, nfrag), func(t *testing.T) {
				defer testutil.BalanceCheck(t, "frame pool", PoolOutstanding)()
				msg := tailOfSize(t, mk, nfrag*frag-5)
				var sink captureRWC
				if err := NewConn(&sink, nil).WriteMessage(msg); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sink.buf.Bytes(), wire.Encode(msg, cdr.NativeOrder)) {
					t.Fatal("the written frame differs from wire.Encode")
				}
				if nfrag > 1 {
					if m, err := readOne(bytes.Join(fragments(msg, nfrag), nil), 0); !errors.Is(err, wire.ErrBadFlags) {
						t.Fatalf("%d fragments: got %T, %v; want ErrBadFlags", nfrag, m, err)
					}
					return
				}
				got, err := readOne(sink.buf.Bytes(), 0)
				if err != nil {
					t.Fatal(err)
				}
				want, back := cdr.NewEncoder(cdr.NativeOrder), cdr.NewEncoder(cdr.NativeOrder)
				msg.EncodeBody(want)
				got.EncodeBody(back)
				if got.Type() != msg.Type() || !bytes.Equal(back.Bytes(), want.Bytes()) {
					t.Fatalf("decoded %v does not re-encode to the original %v", got.Type(), msg.Type())
				}
				var args []byte
				var release func()
				switch m := got.(type) {
				case *wire.Request:
					args, release = m.Args, m.Release
				case *wire.Reply:
					args, release = m.Args, m.Release
				}
				if len(args) != cap(args) {
					t.Fatalf("the %d-byte tail has capacity %d: it is not clipped to its length", len(args), cap(args))
				}
				returned := PoolStats().Returns
				release()
				if PoolStats().Returns == returned {
					t.Fatal("Release gave no frame back to the pool")
				}
			})
		}
	}
}

// TestReassemblyFailuresReturnFrames drives the ways a reassembly used to fail
// through the one-frame reader, for a Reply (a plain body) and a Data message
// (a rented one): a body over the size limit is refused from its header,
// before anything is rented, and a message cut into fragments the way a
// PGIOP 8 writer did it is refused at its leading frame whatever its trailing
// frames hold — a foreign frame interleaved, a fragment in the other byte
// order. Each fails with its typed error and the frame pool owes nothing.
func TestReassemblyFailuresReturnFrames(t *testing.T) {
	other := cdr.BigEndian
	if cdr.NativeOrder == cdr.BigEndian {
		other = cdr.LittleEndian
	}
	ping := wire.Encode(&wire.Ping{Nonce: 1}, cdr.NativeOrder)
	msgs := map[string]wire.Message{
		"reply": &wire.Reply{RequestID: 3, Args: bytes.Repeat([]byte{0xab}, 1000)},
		"data":  &wire.Data{RequestID: 3, Count: 125, Payload: bytes.Repeat([]byte{0xcd}, 1000)},
	}
	faults := []struct {
		name   string
		max    int
		stream func(m wire.Message) [][]byte
		want   error
	}{
		{"too-large", 300, func(m wire.Message) [][]byte { return [][]byte{wire.Encode(m, cdr.NativeOrder)} }, ErrTooLarge},
		{"interleaved", 0, func(m wire.Message) [][]byte {
			fs := fragments(m, 16)
			return append(append(append([][]byte(nil), fs[:3]...), ping), fs[3:]...)
		}, wire.ErrBadFlags},
		{"order-flip", 0, func(m wire.Message) [][]byte {
			fs := fragments(m, 16)
			h := wire.EncodeHeader(pgiop8Fragment, other, false, len(fs[4])-wire.HeaderLen)
			h[5] |= 1 << 1
			fs[4] = append(h[:], fs[4][wire.HeaderLen:]...)
			return fs
		}, wire.ErrBadFlags},
	}
	for name, msg := range msgs {
		for _, ft := range faults {
			t.Run(name+"/"+ft.name, func(t *testing.T) {
				defer testutil.BalanceCheck(t, "frame pool", PoolOutstanding)()
				if m, err := readOne(bytes.Join(ft.stream(msg), nil), ft.max); !errors.Is(err, ft.want) {
					t.Fatalf("got %T, %v; want %v", m, err, ft.want)
				}
			})
		}
	}
}
