package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/dseq"
	"repro/internal/rts"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

// capture runs fn with os.Stdout redirected into a buffer.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	fn()
	os.Stdout = orig
	w.Close()
	return <-done
}

func TestDumpCompressedData(t *testing.T) {
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = float64(i)
	}
	// The chunk a compressing sender puts on the wire: a one-thread
	// sequence's range, rendered with the XOR codec.
	w := rts.NewWorld(1)
	defer w.Close()
	seq, err := dseq.FromLocal(w.Comm(0), dseq.Float64, vals)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := seq.MarshalRangeZ(0, len(vals), zcodec.MaskXOR)
	if err != nil {
		t.Fatal(err)
	}
	if !dseq.IsCompressedChunk(payload) {
		t.Fatal("smooth ramp did not compress")
	}
	out := capture(t, func() {
		dump(0, &wire.Data{
			RequestID: 1, Count: uint64(len(vals)),
			Flags:   wire.DataFlagChunk | wire.DataFlagLast,
			Payload: payload,
		})
	})
	for _, want := range []string{"compressed codec=xor", "elems=512", "4096B raw ->"} {
		if !strings.Contains(out, want) {
			t.Errorf("compressed Data dump missing %q:\n%s", want, out)
		}
	}
	// The payload's first byte, not a flag, says what a chunk is.
	out = capture(t, func() {
		dump(1, &wire.Data{RequestID: 1, Count: uint64(len(vals)), Flags: wire.DataFlagChunk, Payload: dseq.MarshalChunk(dseq.Float64, vals)})
	})
	if strings.Contains(out, "compressed") {
		t.Errorf("raw Data dump claims compression:\n%s", out)
	}
}
