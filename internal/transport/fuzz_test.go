package transport

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/cdr"
	"repro/internal/wire"
)

// byteStream serves a fixed byte string as one side of a connection: reads
// drain the bytes, writes vanish. It lets the fuzzer drive ReadMessage's
// framing with arbitrary wire data.
type byteStream struct{ r *bytes.Reader }

func (s *byteStream) Read(p []byte) (int, error)  { return s.r.Read(p) }
func (s *byteStream) Write(p []byte) (int, error) { return len(p), nil }
func (s *byteStream) Close() error                { return nil }

// captureRWC collects everything written to it; reads report EOF.
type captureRWC struct{ buf bytes.Buffer }

func (c *captureRWC) Read(p []byte) (int, error)  { return 0, io.EOF }
func (c *captureRWC) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *captureRWC) Close() error                { return nil }

// encodeFrames renders messages to raw frame bytes through a real Conn, so
// fuzz seeds are exactly what the writer side produces.
func encodeFrames(t *testing.F, msgs ...wire.Message) []byte {
	t.Helper()
	var cap captureRWC
	c := NewConn(&cap, nil)
	for _, m := range msgs {
		if err := c.WriteMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	return cap.buf.Bytes()
}

// FuzzReadMessage feeds arbitrary byte streams to the framing layer. Any
// input must produce a sequence of messages ending in an error or EOF —
// never a panic, hang, or oversized allocation (MaxFrameSize bounds every
// body before it is allocated).
func FuzzReadMessage(f *testing.F) {
	f.Add(encodeFrames(f,
		&wire.Request{RequestID: 1, ResponseExpected: true, ObjectKey: []byte("key"), Operation: "op", Args: []byte("abcd")},
		&wire.Reply{RequestID: 1, Status: wire.ReplyNoException, Args: []byte("efgh")}))
	f.Add(encodeFrames(f, &wire.Data{RequestID: 2, SrcRank: 1, DstRank: 0, Count: 8, Payload: make([]byte, 64)}))
	// Messages cut into frames the way a PGIOP 8 writer split a body over a
	// 32-byte threshold, which the reader refuses at the leading frame: a
	// Data message behind a whole one, and a Reply.
	data := &wire.Data{RequestID: 3, Count: 32, Payload: bytes.Repeat([]byte{0xab}, 256)}
	f.Add(append(encodeFrames(f, data), bytes.Join(fragments(data, 10), nil)...))
	reply := &wire.Reply{RequestID: 4, Status: wire.ReplyNoException, Args: bytes.Repeat([]byte{0xcd}, 300)}
	f.Add(bytes.Join(fragments(reply, 10), nil))
	// A large Request and Reply, each one frame — whole, cut off part-way,
	// and with a foreign frame inside the body its header declares.
	whole := encodeFrames(f, &wire.Request{RequestID: 5, ResponseExpected: true, ObjectKey: []byte("key"), Operation: "op", Args: bytes.Repeat([]byte{0xef}, 300)}, reply)
	f.Add(whole)
	f.Add(whole[:len(whole)-50])
	f.Add(append(append(append([]byte(nil), whole[:2*(wire.HeaderLen+32)]...), wire.Encode(&wire.Ping{Nonce: 1}, cdr.BigEndian)...), whole[2*(wire.HeaderLen+32):]...))
	// Truncated frame: a header promising more than follows.
	h := wire.EncodeHeader(wire.MsgData, cdr.NativeOrder, false, 100)
	f.Add(append(h[:], 1, 2, 3))
	// Oversize declaration.
	huge := wire.EncodeHeader(wire.MsgData, cdr.NativeOrder, false, 1<<30)
	f.Add(huge[:])
	f.Add([]byte("PDIS garbage that is not a frame at all....."))
	// A well-formed frame of the previous protocol version, then a current one.
	v1 := wire.Encode(&wire.LocateRequest{RequestID: 9}, cdr.LittleEndian)
	v1[4] = wire.Version - 1
	f.Add(append(v1, wire.Encode(&wire.Ping{Nonce: 1}, cdr.LittleEndian)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		base := PoolOutstanding()
		c := NewConn(&byteStream{r: bytes.NewReader(data)}, &Options{MaxFrameSize: 1 << 20})
		// Bounded: the stream is finite, so reads hit EOF; the cap just
		// guards against an accidental infinite accept loop.
		for i := 0; i < 64; i++ {
			m, err := c.ReadMessage()
			if err != nil {
				break
			}
			if d, ok := m.(*wire.Data); ok {
				d.Release()
			}
		}
		// However the stream ended, every borrowed frame went back.
		if got := PoolOutstanding(); got != base {
			t.Fatalf("frame pool balance moved from %d to %d", base, got)
		}
	})
}
