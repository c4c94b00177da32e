// Command pardis-wiredump decodes PGIOP wire data: a stream of framed
// messages (as captured from a connection) or a single stringified object
// reference.
//
// Usage:
//
//	pardis-wiredump capture.bin        # decode framed messages from a file
//	pardis-wiredump -                  # ... from stdin
//	pardis-wiredump -ior IOR:00a1...   # pretty-print an object reference
//	pardis-wiredump -spans spans.txt   # pretty-print a trace span dump
//	                                   # (as written by pardis-bench -spandump)
//	pardis-wiredump -frames capture.bin
//	                                   # also print each frame header: type,
//	                                   # byte order, body size (a Ping, which
//	                                   # the transport answers, shows only here)
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

func main() {
	ior := flag.String("ior", "", "decode a stringified object reference instead of a stream")
	spans := flag.String("spans", "", "pretty-print a trace span dump (file or -) instead of a stream")
	frames := flag.Bool("frames", false, "print each frame header (type, order, size) alongside messages")
	flag.Parse()

	if *spans != "" {
		if err := dumpSpans(*spans); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *ior != "" {
		ref, err := orb.ParseIOR(*ior)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("type id:  %s\n", ref.TypeID)
		fmt.Printf("key:      %q\n", ref.Key)
		fmt.Printf("threads:  %d\n", ref.Threads)
		fmt.Printf("multiport: %v\n", ref.Multiport())
		for _, ep := range ref.Endpoints {
			fmt.Printf("  thread %d at %s\n", ep.Rank, ep.Addr())
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pardis-wiredump [-ior IOR:...] [-spans file] [-frames] <file|->")
		os.Exit(2)
	}
	var r io.ReadCloser
	if flag.Arg(0) == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		r = f
	}
	defer r.Close()

	var opts *transport.Options
	if *frames {
		opts = &transport.Options{FrameHook: func(h wire.Header) {
			fmt.Printf("  frame %v order=%v size=%d\n", h.Type, h.Order(), h.Size)
		}}
	}
	conn := transport.NewConn(readOnly{r}, opts)
	for i := 0; ; i++ {
		msg, err := conn.ReadMessage()
		if err != nil {
			if i == 0 {
				log.Fatalf("no messages decoded: %v", err)
			}
			fmt.Printf("-- end of stream after %d message(s) (%v)\n", i, err)
			return
		}
		dump(i, msg)
	}
}

func dump(i int, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.Request:
		fmt.Printf("[%d] Request id=%d op=%q key=%q response=%v args=%dB\n",
			i, m.RequestID, m.Operation, m.ObjectKey, m.ResponseExpected, len(m.Args))
	case *wire.Reply:
		fmt.Printf("[%d] Reply id=%d status=%v args=%dB\n", i, m.RequestID, m.Status, len(m.Args))
	case *wire.Data:
		kind := "in-flow"
		if m.Reply {
			kind = "return-flow"
		}
		line := fmt.Sprintf("[%d] Data id=%d arg=%d %s src=%d dst=%d off=%d count=%d payload=%dB",
			i, m.RequestID, m.ArgIndex, kind, m.SrcRank, m.DstRank, m.DstOff, m.Count, len(m.Payload))
		if id := dseq.ChunkCodec(m.Payload); id != zcodec.None {
			// The element width isn't in the Data message (it follows from
			// the argument type in the invocation header), but the XOR
			// codec only carries float64, so its raw size is exact.
			raw := ""
			if id == zcodec.XOR {
				raw = fmt.Sprintf("%dB raw -> ", 8*m.Count)
			}
			line += fmt.Sprintf(" compressed codec=%v elems=%d (%s%dB wire)",
				id, m.Count, raw, len(m.Payload))
		}
		fmt.Println(line)
	case *wire.Pong:
		fmt.Printf("[%d] Pong nonce=%#x\n", i, m.Nonce)
	case *wire.LocateRequest:
		fmt.Printf("[%d] LocateRequest id=%d key=%q\n", i, m.RequestID, m.ObjectKey)
	case *wire.LocateReply:
		fmt.Printf("[%d] LocateReply id=%d status=%d\n", i, m.RequestID, m.Status)
	case *wire.CloseConnection:
		fmt.Printf("[%d] CloseConnection\n", i)
	case *wire.MessageError:
		fmt.Printf("[%d] MessageError\n", i)
	default:
		fmt.Printf("[%d] %v\n", i, msg.Type())
	}
}

// dumpSpans pretty-prints a span dump, grouped by trace id and ordered by
// start time within each trace.
func dumpSpans(path string) error {
	var r io.ReadCloser = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		r = f
	}
	defer r.Close()
	spans, err := obs.ParseSpans(r)
	if err != nil {
		return err
	}
	byTrace := map[uint64][]obs.Span{}
	var traces []uint64
	for _, s := range spans {
		if _, seen := byTrace[s.Trace]; !seen {
			traces = append(traces, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i] < traces[j] })
	for _, tr := range traces {
		group := byTrace[tr]
		sort.SliceStable(group, func(i, j int) bool { return group[i].Start < group[j].Start })
		base := group[0].Start
		fmt.Printf("trace %d (%d spans)\n", tr, len(group))
		for _, s := range group {
			line := fmt.Sprintf("  %-11s rank %-3d +%9.3fms %9.3fms",
				s.Phase, s.Rank, float64(s.Start-base)/1e6, float64(s.Dur)/1e6)
			if s.Codec != 0 {
				line += fmt.Sprintf("  codec=%s", zcodec.MaskString(uint8(s.Codec)))
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("%d span(s) in %d trace(s)\n", len(spans), len(traces))
	return nil
}

// readOnly adapts a reader into the ReadWriteCloser the transport wants. The
// Pong the transport answers a captured Ping with goes nowhere, so a Ping
// shows only as a frame header (-frames).
type readOnly struct{ io.ReadCloser }

func (readOnly) Write(p []byte) (int, error) { return len(p), nil }
