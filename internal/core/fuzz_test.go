package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cdr"
)

// FuzzDecodeInvocationHeader throws arbitrary bytes at the invocation header
// decoder. Any input must produce a header or ErrBadHeader — never a panic —
// and an accepted header must be internally consistent (a multi-port header
// has a chunk size and offers no result stream, inline data rides only on a
// whole-payload one) and decode
// to the same header again once re-encoded.
func FuzzDecodeInvocationHeader(f *testing.F) {
	f.Add(goldenHeader, true)
	f.Add(goldenHeader[:len(goldenHeader)-3], true) // cut inside the inline data
	f.Add(goldenHeader[:24], true)                  // cut before the token
	streamed := bytes.Clone(goldenHeader[:len(goldenHeader)-6])
	streamed[16] = 64 // chunk elems: the argument data no longer rides inline
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
		h, err := decodeInvocationHeader(cdr.NewDecoder(data, ord))
		if err != nil {
			return
		}
		if h.Method > Multiport || (h.Method == Multiport && (h.ChunkElems == 0 || h.ResultChunkElems != 0)) || h.ClientRanks < 1 {
			t.Fatalf("accepted inconsistent header %+v", h)
		}
		for i, a := range h.Args {
			if a.Data != nil && !h.inline(i) {
				t.Fatalf("arg %d of %+v carries inline data", i, h)
			}
		}
		e := cdr.NewEncoder(ord)
		h.encode(e)
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
// the offer and its own lengths make, inside the static chunk bound, and
// carries inline data exactly when it does not stream.
func FuzzDecodeReplyHeader(f *testing.F) {
	f.Add(goldenReply, uint32(64), false, true)                      // streamed
	f.Add(goldenReply, uint32(0), false, true)                       // streams though nothing was offered
	f.Add(goldenReply, uint32(32), false, true)                      // streams in another size than the offer makes
	f.Add(goldenReply, uint32(64), true, true)                       // streams to a multi-port request
	f.Add(goldenReply[:len(goldenReply)-5], uint32(64), false, true) // truncated
	f.Add(goldenReply[:10], uint32(64), false, true)
	for _, h := range []*replyHeader{
		{Scalars: []byte{9}, Args: []replyArg{{Dir: In, Length: 16}, {Dir: Out, Length: 3, Data: []byte{1, 2, 3}}}}, // inline
		{Args: []replyArg{{Dir: Out}}},                                         // zero-length result
		{ChunkElems: 1<<30 + 1, Args: []replyArg{{Dir: Out, Length: 1 << 40}}}, // over the size bound
	} {
		e := cdr.NewEncoder(cdr.BigEndian)
		h.encode(e, Centralized)
		f.Add(e.Bytes(), uint32(8192), false, false)
	}
	f.Add([]byte{}, uint32(0), false, true)

	f.Fuzz(func(t *testing.T, data []byte, offered uint32, direct, little bool) {
		ord := cdr.BigEndian
		if little {
			ord = cdr.LittleEndian
		}
		offered %= 1<<30 + 1 // what a client can offer
		h, err := decodeReplyHeader(cdr.NewDecoder(data, ord), int(offered), direct)
		if err != nil {
			if !errors.Is(err, ErrBadHeader) {
				t.Fatalf("refused with %v, not ErrBadHeader", err)
			}
			return
		}
		chunks := 0
		for i, a := range h.Args {
			if (a.Data != nil) != (!direct && h.ChunkElems == 0 && a.Dir != In) {
				t.Fatalf("arg %d of %+v: inline data in the wrong reply", i, h)
			}
			if h.ChunkElems != 0 {
				chunks += chunkCount(h.resultLen(i), int(h.ChunkElems))
			}
		}
		if h.ChunkElems != 0 && (offered == 0 || direct || h.ChunkElems > 1<<30 || chunks > maxStreamChunks ||
			int(h.ChunkElems) != chunkElemsFor(int(offered), len(h.Args), h.resultLen)) {
			t.Fatalf("accepted a stream of %d chunks of %d with %d offered (direct %v): %+v", chunks, h.ChunkElems, offered, direct, h)
		}
		method := Centralized
		if direct {
			method = Multiport
		}
		e := cdr.NewEncoder(ord)
		h.encode(e, method)
		again, err := decodeReplyHeader(cdr.NewDecoder(e.Bytes(), ord), int(offered), direct)
		if err != nil {
			t.Fatalf("re-encoded reply rejected: %v", err)
		}
		e2 := cdr.NewEncoder(ord)
		again.encode(e2, method)
		if !bytes.Equal(e.Bytes(), e2.Bytes()) {
			t.Fatalf("reply does not round-trip:\n% x\n% x", e.Bytes(), e2.Bytes())
		}
	})
}
