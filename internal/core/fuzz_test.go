package core

import (
	"bytes"
	"testing"

	"repro/internal/cdr"
)

// FuzzDecodeInvocationHeader throws arbitrary bytes at the invocation header
// decoder. Any input must produce a header or ErrBadHeader — never a panic —
// and an accepted header must be internally consistent (a chunk size only on
// a centralized header, inline data only on a whole-payload one) and decode
// to the same header again once re-encoded.
func FuzzDecodeInvocationHeader(f *testing.F) {
	f.Add(goldenHeader, true)
	f.Add(goldenHeader[:len(goldenHeader)-3], true) // cut inside the inline data
	f.Add(goldenHeader[:20], true)                  // cut before the token
	streamed := bytes.Clone(goldenHeader[:len(goldenHeader)-6])
	streamed[16] = 64 // chunk elems: the argument data no longer rides inline
	f.Add(streamed, true)
	multiport := bytes.Clone(streamed)
	multiport[8] = byte(Multiport) // a chunk size on a multi-port header
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
		if h.Method > Multiport || (h.Streamed() && h.Method != Centralized) || h.ClientRanks < 1 {
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
