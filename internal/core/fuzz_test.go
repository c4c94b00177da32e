package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cdr"
	"repro/internal/dist"
)

// FuzzDecodeInvocationHeader throws arbitrary bytes at the invocation header
// decoder. Any input must produce a header or ErrBadHeader — never a panic —
// and an accepted header must be internally consistent (a multi-port header
// has a chunk size and offers no result stream), must have been read without
// touching a byte past its own end, and must decode to the same header again
// once re-encoded.
func FuzzDecodeInvocationHeader(f *testing.F) {
	f.Add(goldenHeader, true)
	f.Add(append(bytes.Clone(goldenHeader), goldenStep...), true) // the request: the step behind the header
	f.Add(goldenHeader[:len(goldenHeader)-3], true)               // cut inside the layout
	f.Add(goldenHeader[:24], true)                                // cut before the token
	streamed := bytes.Clone(goldenHeader)
	streamed[16] = 64 // chunk elems: the request leg is framed
	f.Add(streamed, true)
	multiport := bytes.Clone(streamed)
	multiport[8] = byte(Multiport) // a multi-port header that offers a result stream: refused
	f.Add(multiport, true)
	be := cdr.NewEncoder(cdr.BigEndian)
	goldenHeaderValue(f).encode(be)
	f.Add(be.Bytes(), false)
	f.Add([]byte{}, true)

	f.Fuzz(func(t *testing.T, data []byte, little bool) {
		ord := cdr.BigEndian
		if little {
			ord = cdr.LittleEndian
		}
		d := cdr.NewDecoder(data, ord)
		h, err := decodeInvocationHeader(d)
		if err != nil {
			return
		}
		if h.Method > Multiport || (h.Method == Multiport && (h.ChunkElems == 0 || h.ResultChunkElems != 0)) || h.ClientRanks < 1 {
			t.Fatalf("accepted inconsistent header %+v", h)
		}
		// The header ends where the decoder stopped: the same bytes cut there
		// decode to the same header, so nothing behind them was read.
		cut, err := decodeInvocationHeader(cdr.NewDecoder(data[:d.Pos()], ord))
		if err != nil {
			t.Fatalf("header cut at its own end (%d of %d bytes) rejected: %v", d.Pos(), len(data), err)
		}
		e, ce := cdr.NewEncoder(ord), cdr.NewEncoder(ord)
		h.encode(e)
		cut.encode(ce)
		if !bytes.Equal(e.Bytes(), ce.Bytes()) {
			t.Fatalf("the bytes behind the header changed what it decoded to:\n% x\n% x", e.Bytes(), ce.Bytes())
		}
		again, err := decodeInvocationHeader(cdr.NewDecoder(e.Bytes(), ord))
		if err != nil {
			t.Fatalf("re-encoded header rejected: %v", err)
		}
		e2 := cdr.NewEncoder(ord)
		again.encode(e2)
		if !bytes.Equal(e.Bytes(), e2.Bytes()) {
			t.Fatalf("header does not round-trip:\n% x\n% x", e.Bytes(), e2.Bytes())
		}
	})
}

// FuzzDecodeReplyHeader throws arbitrary bytes at the reply header decoder, the
// client's one reader of what a server answers. Any input must produce a header
// or ErrBadHeader — never a panic — and an accepted header must be one the
// client's back leg can act on without waiting on a sink nobody fills: it
// streams only if the request offered to take a stream, only in the chunk size
// the offer and its own lengths make, inside the static chunk bound, and was
// read without touching a byte past its own end.
func FuzzDecodeReplyHeader(f *testing.F) {
	f.Add(goldenReply, uint32(64), false, true)                      // streamed
	f.Add(goldenReply, uint32(0), false, true)                       // streams though nothing was offered
	f.Add(goldenReply, uint32(32), false, true)                      // streams in another size than the offer makes
	f.Add(goldenReply, uint32(64), true, true)                       // streams to a multi-port request
	f.Add(goldenReply[:len(goldenReply)-5], uint32(64), false, true) // truncated
	f.Add(goldenReply[:10], uint32(64), false, true)
	for _, h := range []*replyHeader{
		{Scalars: []byte{9}, Args: []replyArg{{Dir: In, Length: 16}, {Dir: Out, Length: 3}}}, // in the message
		{Args: []replyArg{{Dir: Out}}},                                         // zero-length result
		{ChunkElems: 1<<30 + 1, Args: []replyArg{{Dir: Out, Length: 1 << 40}}}, // over the size bound
	} {
		e := cdr.NewEncoder(cdr.BigEndian)
		h.encode(e)
		f.Add(e.Bytes(), uint32(8192), false, false)
		writeStep(e, []byte{1, 2, 3}) // the reply: a step behind the header
		f.Add(e.Bytes(), uint32(8192), false, false)
	}
	f.Add([]byte{}, uint32(0), false, true)

	f.Fuzz(func(t *testing.T, data []byte, offered uint32, direct, little bool) {
		ord := cdr.BigEndian
		if little {
			ord = cdr.LittleEndian
		}
		offered %= 1<<30 + 1 // what a client can offer
		d := cdr.NewDecoder(data, ord)
		h, err := decodeReplyHeader(d, int(offered), direct)
		if err != nil {
			if !errors.Is(err, ErrBadHeader) {
				t.Fatalf("refused with %v, not ErrBadHeader", err)
			}
			return
		}
		chunks := 0
		for i := range h.Args {
			if h.ChunkElems != 0 {
				chunks += dist.ChunkCount(h.resultLen(i), int(h.ChunkElems))
			}
		}
		if _, err := decodeReplyHeader(cdr.NewDecoder(data[:d.Pos()], ord), int(offered), direct); err != nil {
			t.Fatalf("reply header cut at its own end (%d of %d bytes) rejected: %v", d.Pos(), len(data), err)
		}
		want, _ := chunkElemsFor(int(offered), 1, len(h.Args), func(i int) (int, int) { return 0, h.resultLen(i) })
		if h.ChunkElems != 0 && (offered == 0 || direct || h.ChunkElems > 1<<30 || chunks > maxStreamChunks || int(h.ChunkElems) != want) {
			t.Fatalf("accepted a stream of %d chunks of %d with %d offered (direct %v): %+v", chunks, h.ChunkElems, offered, direct, h)
		}
		e := cdr.NewEncoder(ord)
		h.encode(e)
		again, err := decodeReplyHeader(cdr.NewDecoder(e.Bytes(), ord), int(offered), direct)
		if err != nil {
			t.Fatalf("re-encoded reply rejected: %v", err)
		}
		e2 := cdr.NewEncoder(ord)
		again.encode(e2)
		if !bytes.Equal(e.Bytes(), e2.Bytes()) {
			t.Fatalf("reply does not round-trip:\n% x\n% x", e.Bytes(), e2.Bytes())
		}
	})
}
