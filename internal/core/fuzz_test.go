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
// once re-encoded. The server decodes into the header its last call left, so
// every input is decoded again into a dirty header — one filled from a larger
// one first — which must reach the same verdict and the same header; and a
// refused input must leave nothing a good one decoded after it keeps.
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
	f.Add(dirtyHeaderBytes(f), true)

	f.Fuzz(func(t *testing.T, data []byte, little bool) {
		ord := cdr.BigEndian
		if little {
			ord = cdr.LittleEndian
		}
		d := cdr.NewDecoder(data, ord)
		h, err := freshHeader(d)
		dirty := dirtyHeader(t)
		if derr := decodeInvocationHeader(cdr.NewDecoder(data, ord), dirty); (derr == nil) != (err == nil) {
			t.Fatalf("a fresh header decodes to %v, a dirty one to %v", err, derr)
		}
		if err != nil {
			good := cdr.NewDecoder(goldenHeader, cdr.LittleEndian)
			if err := decodeInvocationHeader(good, dirty); err != nil {
				t.Fatalf("the golden header after a refused one: %v", err)
			}
			sameHeader(t, dirty, goldenHeaderValue(t))
			return
		}
		sameHeader(t, dirty, h)
		if h.Method > Multiport || (h.Method == Multiport && (h.ChunkElems == 0 || h.ResultChunkElems != 0)) || h.ClientRanks < 1 {
			t.Fatalf("accepted inconsistent header %+v", h)
		}
		// The header ends where the decoder stopped: the same bytes cut there
		// decode to the same header, so nothing behind them was read.
		cut, err := freshHeader(cdr.NewDecoder(data[:d.Pos()], ord))
		if err != nil {
			t.Fatalf("header cut at its own end (%d of %d bytes) rejected: %v", d.Pos(), len(data), err)
		}
		e, ce := cdr.NewEncoder(ord), cdr.NewEncoder(ord)
		h.encode(e)
		cut.encode(ce)
		if !bytes.Equal(e.Bytes(), ce.Bytes()) {
			t.Fatalf("the bytes behind the header changed what it decoded to:\n% x\n% x", e.Bytes(), ce.Bytes())
		}
		again, err := freshHeader(cdr.NewDecoder(e.Bytes(), ord))
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

// dirtyHeaderBytes is a header larger than the seeds in every way a decode
// into it must undo: more arguments, more ranks and intervals, an Out spec where
// the golden header has an In layout, a spec of its own, and scalars.
func dirtyHeaderBytes(t testing.TB) []byte {
	cyclic, err := dist.Cyclic{BlockSize: 1}.Layout(40, 7)
	if err != nil {
		t.Fatal(err)
	}
	h := &invocationHeader{Op: "dirty", Method: Multiport, Epoch: 3, ChunkElems: 64, Token: 99, ClientRanks: 7, Scalars: []byte{1, 2, 3, 4, 5},
		Args: []headerArg{
			{Dir: Out, Elem: "long", Spec: dist.Proportions{P: []int{1, 2, 3, 4, 5, 6, 7}}},
			{Dir: InOut, Elem: "double", Layout: cyclic},
			{Dir: In, Elem: "double", Layout: cyclic},
		}}
	e := cdr.NewEncoder(cdr.LittleEndian)
	h.encode(e)
	return e.Bytes()
}

// dirtyHeader is a header dirtyHeaderBytes filled, as a server thread's is
// after a larger call.
func dirtyHeader(t testing.TB) *invocationHeader {
	h, err := freshHeader(cdr.NewDecoder(dirtyHeaderBytes(t), cdr.LittleEndian))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// sameHeader requires got to be want: the same bytes once encoded, and nothing
// the encoding leaves out — an Out argument's layout, another's spec.
func sameHeader(t *testing.T, got, want *invocationHeader) {
	t.Helper()
	ge, we := cdr.NewEncoder(cdr.LittleEndian), cdr.NewEncoder(cdr.LittleEndian)
	got.encode(ge)
	want.encode(we)
	if !bytes.Equal(ge.Bytes(), we.Bytes()) {
		t.Fatalf("decoded into a dirty header:\n% x\nfresh:\n% x", ge.Bytes(), we.Bytes())
	}
	for i, a := range got.Args {
		if (a.Dir == Out) != (a.Layout.Intervals == nil) || (a.Dir == Out) != (a.Spec != nil) {
			t.Fatalf("arg %d (%v) kept a layout or spec of the header before: %+v", i, a.Dir, a)
		}
	}
}

// FuzzDecodeReplyHeader throws arbitrary bytes at the reply header decoder, the
// client's one reader of what a server answers. Any input must produce a header
// or ErrBadHeader — never a panic — and an accepted header must be one the
// client's back leg can act on without waiting on a sink nobody fills: it
// streams only if the request offered to take a stream, only in the chunk size
// the offer and its own lengths make, inside the static chunk bound, and was
// read without touching a byte past its own end. A lane decodes into the reply
// header its last invocation left, so every input is decoded again into a dirty
// header, which must reach the same verdict and the same header, and a refused
// input must leave nothing a good one decoded after it keeps.
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
	// Larger than every seed: more arguments, longer scalars. It is accepted
	// whatever the request offered, as is good.
	larger := &replyHeader{Scalars: []byte{1, 2, 3, 4, 5}, Args: []replyArg{{In, 1 << 20}, {Out, 7}, {InOut, 9}, {Out, 1}, {In, 2}}}
	good := &replyHeader{Scalars: []byte{9}, Args: []replyArg{{Dir: Out, Length: 3}}}
	encode := func(h *replyHeader) []byte {
		e := cdr.NewEncoder(cdr.LittleEndian)
		h.encode(e)
		return e.Bytes()
	}
	f.Add(encode(larger), uint32(0), false, true)

	f.Fuzz(func(t *testing.T, data []byte, offered uint32, direct, little bool) {
		ord := cdr.BigEndian
		if little {
			ord = cdr.LittleEndian
		}
		offered %= 1<<30 + 1 // what a client can offer
		d := cdr.NewDecoder(data, ord)
		h, err := freshReply(d, int(offered), direct)
		dirty, derr := freshReply(cdr.NewDecoder(encode(larger), cdr.LittleEndian), 0, false)
		if derr != nil {
			t.Fatal(derr)
		}
		if derr = decodeReplyHeader(cdr.NewDecoder(data, ord), int(offered), direct, dirty); (derr == nil) != (err == nil) {
			t.Fatalf("a fresh reply header decodes to %v, a dirty one to %v", err, derr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadHeader) {
				t.Fatalf("refused with %v, not ErrBadHeader", err)
			}
			if err := decodeReplyHeader(cdr.NewDecoder(encode(good), cdr.LittleEndian), int(offered), direct, dirty); err != nil {
				t.Fatalf("a good reply after a refused one: %v", err)
			}
			if got := encode(dirty); !bytes.Equal(got, encode(good)) {
				t.Fatalf("a good reply after a refused one:\n% x\nwant\n% x", got, encode(good))
			}
			return
		}
		if got, want := encode(dirty), encode(h); !bytes.Equal(got, want) {
			t.Fatalf("decoded into a dirty reply header:\n% x\nfresh:\n% x", got, want)
		}
		chunks := 0
		for i := range h.Args {
			if h.ChunkElems != 0 {
				chunks += dist.ChunkCount(h.resultLen(i), int(h.ChunkElems))
			}
		}
		if _, err := freshReply(cdr.NewDecoder(data[:d.Pos()], ord), int(offered), direct); err != nil {
			t.Fatalf("reply header cut at its own end (%d of %d bytes) rejected: %v", d.Pos(), len(data), err)
		}
		want, _ := chunkElemsFor(int(offered), 1, len(h.Args), func(i int) (int, int) { return 0, h.resultLen(i) })
		if h.ChunkElems != 0 && (offered == 0 || direct || h.ChunkElems > 1<<30 || chunks > maxStreamChunks || int(h.ChunkElems) != want) {
			t.Fatalf("accepted a stream of %d chunks of %d with %d offered (direct %v): %+v", chunks, h.ChunkElems, offered, direct, h)
		}
		e := cdr.NewEncoder(ord)
		h.encode(e)
		again, err := freshReply(cdr.NewDecoder(e.Bytes(), ord), int(offered), direct)
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
