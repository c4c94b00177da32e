package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/dseq"
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

func TestDumpCompressionNegotiation(t *testing.T) {
	out := capture(t, func() {
		dump(0, &wire.Ping{Nonce: 0x434f4d50, Codecs: zcodec.MaskAll})
		dump(1, &wire.Pong{Nonce: 0x434f4d50, Codecs: zcodec.MaskXOR})
		dump(2, &wire.Ping{Nonce: 7})
		dump(3, &wire.Pong{Nonce: 7})
	})
	for _, want := range []string{
		"compression-offer codecs=all",
		"compression-accept codecs=xor",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("negotiation dump missing %q:\n%s", want, out)
		}
	}
	// Keepalive probes (no codecs) must not claim an offer.
	if strings.Count(out, "compression-") != 2 {
		t.Errorf("keepalive Ping/Pong printed a compression offer:\n%s", out)
	}
}

func TestDumpCompressedData(t *testing.T) {
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = float64(i)
	}
	payload := dseq.MarshalChunkZ(dseq.Float64, vals, zcodec.MaskXOR)
	if !dseq.IsCompressedChunk(payload) {
		t.Fatal("smooth ramp did not compress")
	}
	out := capture(t, func() {
		dump(0, &wire.Data{
			RequestID: 1, Count: uint64(len(vals)),
			Flags:   wire.DataFlagChunk | wire.DataFlagLast | wire.DataFlagCompressed,
			Payload: payload,
		})
	})
	for _, want := range []string{"compressed codec=xor", "elems=512", "4096B raw ->"} {
		if !strings.Contains(out, want) {
			t.Errorf("compressed Data dump missing %q:\n%s", want, out)
		}
	}
}
