package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cdr"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// frame is one captured wire frame: its decoded header and its raw bytes.
type frame struct {
	h   wire.Header
	raw []byte
}

// splitFrames cuts a captured byte stream (no trace extensions) into frames.
func splitFrames(t *testing.T, stream []byte) []frame {
	t.Helper()
	var out []frame
	for len(stream) > 0 {
		h, err := wire.DecodeHeader(stream)
		if err != nil {
			t.Fatal(err)
		}
		n := wire.HeaderLen + int(h.Size)
		out = append(out, frame{h, stream[:n]})
		stream = stream[n:]
	}
	return out
}

func joinFrames(fs []frame) []byte {
	var b []byte
	for _, f := range fs {
		b = append(b, f.raw...)
	}
	return b
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

// TestFragmentedRequestReplyExactBody reads Request and Reply messages cut
// into 1, 2 and 17 frames and checks the transport hands the decoder one
// body of exactly the message's size — len == cap, no append growth — with
// the original contents, and owes the frame pool nothing afterwards.
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
				if err := NewConn(&sink, &Options{Order: cdr.NativeOrder, FragmentThreshold: frag}).WriteMessage(msg); err != nil {
					t.Fatal(err)
				}
				stream := sink.buf.Bytes()
				if got := len(splitFrames(t, stream)); got != nfrag {
					t.Fatalf("wrote %d frames, want %d", got, nfrag)
				}
				want := cdr.NewEncoder(cdr.NativeOrder)
				msg.EncodeBody(want)

				// The raw body, the way ReadMessage obtains it.
				c := NewConn(&byteStream{r: bytes.NewReader(stream)}, nil)
				h, body, err := c.readFrame()
				if err == nil && h.More() {
					body, err = c.reassemble(h, body)
				}
				if err != nil {
					t.Fatal(err)
				}
				// A Request/Reply body must not be a rented frame (its decoded form
				// retains it): nobody returns this one, so BalanceCheck would see it.
				if len(body) != cap(body) || !bytes.Equal(body, want.Bytes()) {
					t.Fatalf("body len %d cap %d, want exactly %d bytes of the encoding", len(body), cap(body), want.Len())
				}

				// And the decoded message, through the public entry point.
				c = NewConn(&byteStream{r: bytes.NewReader(stream)}, nil)
				got, err := c.ReadMessage()
				if err != nil {
					t.Fatal(err)
				}
				back := cdr.NewEncoder(cdr.NativeOrder)
				got.EncodeBody(back)
				if got.Type() != msg.Type() || !bytes.Equal(back.Bytes(), want.Bytes()) {
					t.Fatalf("decoded %v does not re-encode to the original %v", got.Type(), msg.Type())
				}
			})
		}
	}
}

// TestReassemblyFailuresReturnFrames drives every way a reassembly can fail
// — the body crossing the size limit part-way, a non-Fragment frame
// interleaved, a fragment in the other byte order — through both
// accumulators (held frames for a Reply, the hinted pooled buffer for Data)
// and checks each fails with its typed error and every borrowed frame goes
// back to the pool.
func TestReassemblyFailuresReturnFrames(t *testing.T) {
	const frag = 64
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
		mangle func(fs []frame) []frame
		want   error
	}{
		{"too-large", 300, func(fs []frame) []frame { return fs }, ErrTooLarge},
		{"interleaved", 0, func(fs []frame) []frame {
			return append(append(append([]frame(nil), fs[:3]...), frame{raw: ping}), fs[3:]...)
		}, ErrBadFragment},
		{"order-flip", 0, func(fs []frame) []frame {
			out := append([]frame(nil), fs...)
			f := out[4]
			h := wire.EncodeHeader(wire.MsgFragment, other, f.h.More(), int(f.h.Size))
			out[4].raw = append(h[:], f.raw[wire.HeaderLen:]...)
			return out
		}, ErrBadFragment},
	}
	for name, msg := range msgs {
		for _, ft := range faults {
			t.Run(name+"/"+ft.name, func(t *testing.T) {
				defer testutil.BalanceCheck(t, "frame pool", PoolOutstanding)()
				var sink captureRWC
				if err := NewConn(&sink, &Options{Order: cdr.NativeOrder, FragmentThreshold: frag}).WriteMessage(msg); err != nil {
					t.Fatal(err)
				}
				stream := joinFrames(ft.mangle(splitFrames(t, sink.buf.Bytes())))
				c := NewConn(&byteStream{r: bytes.NewReader(stream)}, &Options{MaxFrameSize: ft.max})
				if m, err := c.ReadMessage(); !errors.Is(err, ft.want) {
					t.Fatalf("got %T, %v; want %v", m, err, ft.want)
				}
			})
		}
	}
}

// TestUnderstatedDataHint reassembles a Data message whose prefix declares
// fewer payload bytes than its fragments carry: the hint is only a capacity,
// so append outgrows the rented accumulator mid-way. The message must still
// decode (to the declared payload) and the accumulator must have gone back.
func TestUnderstatedDataHint(t *testing.T) {
	defer testutil.BalanceCheck(t, "frame pool", PoolOutstanding)()
	var sink captureRWC
	msg := &wire.Data{RequestID: 3, Count: 250, Payload: bytes.Repeat([]byte{0xcd}, 2000)}
	if err := NewConn(&sink, &Options{Order: cdr.LittleEndian, FragmentThreshold: 64}).WriteMessage(msg); err != nil {
		t.Fatal(err)
	}
	stream := sink.buf.Bytes()
	binary.LittleEndian.PutUint32(stream[wire.HeaderLen+wire.DataPrefixLen-4:], 100)
	m, err := NewConn(&byteStream{r: bytes.NewReader(stream)}, nil).ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	d := m.(*wire.Data)
	if !bytes.Equal(d.Payload, msg.Payload[:100]) {
		t.Fatalf("payload of %d bytes, want the 100 declared", len(d.Payload))
	}
	d.Release()
}
