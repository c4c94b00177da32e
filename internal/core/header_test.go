package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/rts"
)

func mustLayout(t *testing.T, length, ranks int) dist.Layout {
	t.Helper()
	l, err := dist.Block{}.Layout(length, ranks)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestInvocationHeaderRoundTrip(t *testing.T) {
	for _, method := range []Method{Centralized, Multiport} {
		h := &invocationHeader{
			Op: "diffusion", Method: method, Token: 12345, ClientRanks: 4,
			Scalars:    []byte{1, 2, 3},
			ChunkElems: uint32(method) * 8192, // a multi-port header always announces one
			Args: []headerArg{
				{Dir: In, Elem: "double", Layout: mustLayout(t, 100, 4)},
				{Dir: InOut, Elem: "long", Layout: mustLayout(t, 50, 4)},
				{Dir: Out, Elem: "double", Spec: dist.Proportions{P: []int{1, 2, 3, 4}}},
			},
		}
		e := cdr.NewEncoder(cdr.NativeOrder)
		h.encode(e)
		// The decoder stops at the header's end and leaves what follows alone.
		e.WriteRaw([]byte("rest"))
		d := cdr.NewDecoder(e.Bytes(), cdr.NativeOrder)
		got, err := freshHeader(d)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if rest := e.Bytes()[d.Pos():]; string(rest) != "rest" {
			t.Fatalf("%v: the decoder left %q behind the header", method, rest)
		}
		if got.Op != h.Op || got.Method != h.Method || got.Token != h.Token || got.ClientRanks != 4 {
			t.Fatalf("%v: header %+v", method, got)
		}
		if !bytes.Equal(got.Scalars, h.Scalars) || len(got.Args) != 3 {
			t.Fatalf("%v: payloads %+v", method, got)
		}
		if got.Args[2].Spec.String() != "proportions(1,2,3,4)" {
			t.Fatalf("out spec %v", got.Args[2].Spec)
		}
		if method == Centralized {
			if got.shape() != shapeCentral || got.ChunkElems != 0 {
				t.Fatalf("centralized header: %+v", got)
			}
		} else if got.ChunkElems != 8192 || got.shape() != shapeDirect {
			t.Fatalf("multi-port header lost its chunk size: %+v", got)
		}
		if !got.Args[1].Layout.Equal(h.Args[1].Layout) {
			t.Fatalf("%v: layout mangled", method)
		}
	}
}

// encode renders a reply header from the pieces processCall writes one by one.
func (h *replyHeader) encode(e *cdr.Encoder) {
	encodeReplyPrefix(e, h.Scalars, int(h.ChunkElems), len(h.Args))
	for _, a := range h.Args {
		encodeReplyArg(e, a.Dir, a.Length)
	}
}

// freshHeader and freshReply decode into a header of their own, as a peer
// that keeps none between calls would.
func freshHeader(d *cdr.Decoder) (*invocationHeader, error) {
	h := new(invocationHeader)
	return h, decodeInvocationHeader(d, h)
}

func freshReply(d *cdr.Decoder, offered int, direct bool) (*replyHeader, error) {
	h := new(replyHeader)
	return h, decodeReplyHeader(d, offered, direct, h)
}

// writeStep appends one in-message step the way the walk's gather does.
func writeStep(e *cdr.Encoder, payload []byte) {
	m := e.BeginOctets()
	e.WriteRaw(payload)
	e.EndOctets(m)
}

func TestReplyHeaderRoundTrip(t *testing.T) {
	for _, method := range []Method{Centralized, Multiport} {
		h := &replyHeader{
			Scalars: []byte{5},
			Args: []replyArg{
				{Dir: In, Length: 100},
				{Dir: InOut, Length: 100},
				{Dir: Out, Length: 321},
			},
		}
		e := cdr.NewEncoder(cdr.NativeOrder)
		h.encode(e)
		e.WriteRaw([]byte("rest"))
		// A reply with its results in the message is what a client that offered a
		// stream gets for results under two chunks, and one that offered none
		// always.
		for _, offered := range []int{0, 8192} {
			if method == Multiport && offered != 0 {
				continue
			}
			d := cdr.NewDecoder(e.Bytes(), cdr.NativeOrder)
			got, err := freshReply(d, offered, method == Multiport)
			if err != nil {
				t.Fatalf("%v: %v", method, err)
			}
			if got.Args[2].Length != 321 || got.ChunkElems != 0 {
				t.Fatalf("%v: reply %+v", method, got)
			}
			if rest := e.Bytes()[d.Pos():]; string(rest) != "rest" {
				t.Fatalf("%v: the decoder left %q behind the reply header", method, rest)
			}
		}
	}
	// A streamed reply carries lengths only: the result data travelled as
	// chunked Data messages written before the Reply, in the chunk size it
	// announces — which must be the one its lengths and the client's offer make.
	sh := &replyHeader{ChunkElems: 32, Args: []replyArg{{Dir: In, Length: 1 << 20}, {Dir: Out, Length: 77}}}
	se := cdr.NewEncoder(cdr.NativeOrder)
	sh.encode(se)
	sgot, err := freshReply(cdr.NewDecoder(se.Bytes(), cdr.NativeOrder), 32, false)
	if err != nil {
		t.Fatal(err)
	}
	if sgot.ChunkElems != 32 || sgot.Args[1].Length != 77 {
		t.Fatalf("streamed reply header %+v", sgot)
	}
	for name, tc := range map[string]struct {
		offered int
		direct  bool
	}{
		"nothing offered":       {0, false},
		"multi-port request":    {0, true},
		"another size on offer": {16, false},
	} {
		if _, err := freshReply(cdr.NewDecoder(se.Bytes(), cdr.NativeOrder), tc.offered, tc.direct); !errors.Is(err, ErrBadHeader) {
			t.Errorf("streamed reply accepted with %s (err=%v)", name, err)
		}
	}
	// The schedule bound doubles the offered size until maxStreamChunks hold
	// the results: a reply that announces the offer undoubled is refused.
	big := &replyHeader{ChunkElems: 1, Args: []replyArg{{Dir: Out, Length: 4 * maxStreamChunks}}}
	for ce, ok := range map[uint32]bool{1: false, 2: false, 4: true, 8: false} {
		big.ChunkElems = ce
		be := cdr.NewEncoder(cdr.NativeOrder)
		big.encode(be)
		_, err := freshReply(cdr.NewDecoder(be.Bytes(), cdr.NativeOrder), 1, false)
		if ok != (err == nil) || (!ok && !errors.Is(err, ErrBadHeader)) {
			t.Errorf("reply of %d elements in chunks of %d, 1 offered: err=%v", big.Args[0].Length, ce, err)
		}
	}
}

// goldenReply is the v5 reply header of a streamed centralized call,
// little-endian: scalars, the reply leg's chunk size, argument count, then per
// argument its direction and final length — and nothing else, whatever the
// chunk size: had it been 0, the out argument's step would follow the header.
// Pinned byte for byte so the next format change is a visible diff.
var goldenReply = []byte{
	1, 0, 0, 0, 9, 0, 0, 0, // scalars
	0x40, 0, 0, 0, // chunk elems: the results streamed ahead, 64 at a time
	2, 0, 0, 0, // two arguments
	0, 0, 0, 0, // in
	0, 0, 0, 0, 0x10, 0, 0, 0, 0, 0, 0, 0, // length 16
	1, 0, 0, 0, // out
	0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, // length 256
}

func TestReplyHeaderGolden(t *testing.T) {
	h := &replyHeader{Scalars: []byte{9}, ChunkElems: 64, Args: []replyArg{{Dir: In, Length: 16}, {Dir: Out, Length: 256}}}
	e := cdr.NewEncoder(cdr.LittleEndian)
	h.encode(e)
	if !bytes.Equal(e.Bytes(), goldenReply) {
		t.Fatalf("reply header\n% x\nwant\n% x", e.Bytes(), goldenReply)
	}
	got, err := freshReply(cdr.NewDecoder(goldenReply, cdr.LittleEndian), 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.ChunkElems != 64 || !bytes.Equal(got.Scalars, []byte{9}) || len(got.Args) != 2 || got.Args[1].Dir != Out || got.Args[1].Length != 256 {
		t.Fatalf("golden reply decoded to %+v", got)
	}
}

// TestStreamedInvocationHeaderRoundTrip pins the streamed header wiring: a
// chunk size makes a centralized header's request leg framed, it and the epoch
// travel, and no step is expected in the message.
func TestStreamedInvocationHeaderRoundTrip(t *testing.T) {
	h := &invocationHeader{
		Op: "diffusion", Method: Centralized, Epoch: 3, ChunkElems: 8192, ResultChunkElems: 4096,
		Token: 99, ClientRanks: 4, Scalars: []byte{1},
		Args: []headerArg{
			{Dir: In, Elem: "double", Layout: mustLayout(t, 100000, 4)},
			{Dir: Out, Elem: "double", Spec: dist.Block{}},
		},
	}
	e := cdr.NewEncoder(cdr.NativeOrder)
	h.encode(e)
	got, err := freshHeader(cdr.NewDecoder(e.Bytes(), cdr.NativeOrder))
	if err != nil {
		t.Fatal(err)
	}
	if got.shape() != shapeCentral || got.Method != Centralized || got.ChunkElems != 8192 || got.ResultChunkElems != 4096 || got.Epoch != 3 {
		t.Fatalf("streamed header %+v", got)
	}
	// Both multi-port legs are direct and cut in the header's chunk size: a
	// multi-port header without one, or one that offers a result stream through
	// the communicating thread, is malformed, as are implausible chunk sizes and
	// epochs.
	for name, bad := range map[string]invocationHeader{
		"multiport without a chunk size": {Op: "f", Method: Multiport, ClientRanks: 1},
		"multiport chunk size":           {Op: "f", Method: Multiport, ChunkElems: 1<<30 + 1, ClientRanks: 1},
		"chunk size":                     {Op: "f", Method: Centralized, ChunkElems: 1<<30 + 1, ClientRanks: 1},
		"multiport result chunk size":    {Op: "f", Method: Multiport, ChunkElems: 8192, ResultChunkElems: 8192, ClientRanks: 1},
		"result chunk size":              {Op: "f", Method: Centralized, ResultChunkElems: 1<<30 + 1, ClientRanks: 1},
		"epoch":                          {Op: "f", Method: Centralized, Epoch: 1<<30 + 1, ClientRanks: 1},
		"method":                         {Op: "f", Method: Multiport + 1, ClientRanks: 1},
	} {
		e = cdr.NewEncoder(cdr.NativeOrder)
		bad.encode(e)
		if _, err := freshHeader(cdr.NewDecoder(e.Bytes(), cdr.NativeOrder)); !errors.Is(err, ErrBadHeader) {
			t.Fatalf("bad %s accepted (err=%v)", name, err)
		}
	}
}

// goldenHeader is the invocation header of a centralized call whose request
// leg is placed in the message, little-endian: op, method, epoch, chunk size,
// the chunk size offered for the results, token, client ranks, scalars,
// argument count, then per argument its direction, element type and layout or
// template — and no argument data: the header is the same in every placement.
// Pinned byte for byte so the next format change is a visible diff.
var goldenHeader = []byte{
	2, 0, 0, 0, 'f', 0, 0, 0, // op "f"
	0, 0, 0, 0, // method: centralized
	7, 0, 0, 0, // epoch
	0, 0, 0, 0, // chunk elems: the steps ride in the message
	0, 0x20, 0, 0, // result chunk elems: results may stream back 8192 at a time
	0x39, 0x30, 0, 0, // token
	2, 0, 0, 0, // client ranks
	1, 0, 0, 0, 9, 0, 0, 0, // scalars
	1, 0, 0, 0, // one argument
	0, 0, 0, 0, // in
	7, 0, 0, 0, 'd', 'o', 'u', 'b', 'l', 'e', 0, 0, // element type
	4, 0, 0, 0, 2, 0, 0, 0, // layout: length 4 over 2 ranks
	1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, // rank 0: one interval [0, 2)
	1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, // rank 1: one interval [2, 4)
}

// goldenStep is what follows goldenHeader in its request: the in argument's one
// step, a sequence<octet>.
var goldenStep = []byte{2, 0, 0, 0, 0xaa, 0xbb}

func goldenHeaderValue(t testing.TB) *invocationHeader {
	l, err := dist.Block{}.Layout(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &invocationHeader{
		Op: "f", Method: Centralized, Epoch: 7, ResultChunkElems: 8192, Token: 12345, ClientRanks: 2, Scalars: []byte{9},
		Args: []headerArg{{Dir: In, Elem: "double", Layout: l}},
	}
}

func TestInvocationHeaderGolden(t *testing.T) {
	e := cdr.NewEncoder(cdr.LittleEndian)
	goldenHeaderValue(t).encode(e)
	if !bytes.Equal(e.Bytes(), goldenHeader) {
		t.Fatalf("header\n% x\nwant\n% x", e.Bytes(), goldenHeader)
	}
	// The request in the message placement: the header bytes, then the step.
	writeStep(e, []byte{0xaa, 0xbb})
	request := append(bytes.Clone(goldenHeader), goldenStep...)
	if !bytes.Equal(e.Bytes(), request) {
		t.Fatalf("request\n% x\nwant\n% x", e.Bytes(), request)
	}
	d := cdr.NewDecoder(request, cdr.LittleEndian)
	got, err := freshHeader(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != "f" || got.Epoch != 7 || got.shape() != shapeCentral || got.ChunkElems != 0 || got.ResultChunkElems != 8192 || got.Token != 12345 {
		t.Fatalf("golden header decoded to %+v", got)
	}
	if d.Pos() != len(goldenHeader) {
		t.Fatalf("the decoder stopped at %d, the header ends at %d", d.Pos(), len(goldenHeader))
	}
	if err := checkSteps(*d, []ArgDesc{{Dir: In}}, Out, false); err != nil {
		t.Fatal(err)
	}
	if step, err := d.ReadOctets(); err != nil || !bytes.Equal(step, []byte{0xaa, 0xbb}) {
		t.Fatalf("the step behind the golden header: % x, %v", step, err)
	}
}

// TestStepsInMessage is checkSteps' table: what follows a header in its message
// must be exactly the steps the leg's placement puts there. Thread 0 refuses
// anything else from the message alone.
func TestStepsInMessage(t *testing.T) {
	args := []ArgDesc{{Dir: In}, {Dir: Out}, {Dir: InOut}}
	for _, tc := range []struct {
		name   string
		skip   Dir // Out: a request leg; In: a reply leg
		framed bool
		steps  int    // octet sequences behind the header
		extra  string // raw bytes behind those
		why    string // "" accepts
	}{
		{"request in the message", Out, false, 2, "", ""},
		{"request one step short", Out, false, 1, "", "step 1 of the 2"},
		{"request without steps", Out, false, 0, "", "step 0 of the 2"},
		{"request one step over", Out, false, 3, "", "bytes after the last of the 2 steps"},
		{"request with bytes after the last step", Out, false, 2, "x", "1 bytes after the last of the 2 steps"},
		{"framed or multi-port request", Out, true, 0, "", ""},
		{"framed or multi-port request with a step", Out, true, 1, "", "bytes after the last of the 0 steps"},
		{"framed or multi-port request with a tail", Out, true, 0, "x", "1 bytes after the last of the 0 steps"},
		{"reply in the message", In, false, 2, "", ""},
		{"reply one step short", In, false, 1, "", "step 1 of the 2"},
		{"reply one step over", In, false, 3, "", "bytes after the last of the 2 steps"},
		{"reply with bytes after the last step", In, false, 2, "xy", "2 bytes after the last of the 2 steps"},
		{"framed or multi-port reply", In, true, 0, "", ""},
		{"framed or multi-port reply with its steps", In, true, 2, "", "bytes after the last of the 0 steps"},
	} {
		e := cdr.NewEncoder(cdr.NativeOrder)
		e.WriteString("a header") // the steps are aligned in the message, not by themselves
		for i := 0; i < tc.steps; i++ {
			writeStep(e, []byte{byte(i)})
		}
		e.WriteRaw([]byte(tc.extra))
		d := cdr.NewDecoder(e.Bytes(), cdr.NativeOrder)
		if _, err := d.ReadString(); err != nil {
			t.Fatal(err)
		}
		at := d.Pos()
		err := checkSteps(*d, args, tc.skip, tc.framed)
		switch {
		case d.Pos() != at:
			t.Errorf("%s: checkSteps moved the caller's cursor", tc.name)
		case tc.why == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.why != "" && (!errors.Is(err, ErrBadHeader) || !strings.Contains(err.Error(), tc.why)):
			t.Errorf("%s: ended with %v, want ErrBadHeader saying %q", tc.name, err, tc.why)
		}
	}
}

func TestHeaderDecodeNeverPanics(t *testing.T) {
	prop := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		freshHeader(cdr.NewDecoder(data, cdr.LittleEndian))
		freshReply(cdr.NewDecoder(data, cdr.LittleEndian), 0, false)
		freshReply(cdr.NewDecoder(data, cdr.LittleEndian), 8192, false)
		freshReply(cdr.NewDecoder(data, cdr.LittleEndian), 0, true)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderTruncations(t *testing.T) {
	h := &invocationHeader{Op: "f", Method: Centralized, Token: 1, ClientRanks: 2,
		Args: []headerArg{{Dir: In, Elem: "double", Layout: mustLayout(t, 10, 2)}}}
	e := cdr.NewEncoder(cdr.NativeOrder)
	h.encode(e)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := freshHeader(cdr.NewDecoder(full[:cut], cdr.NativeOrder)); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestFutureWaitTimeoutAndReady(t *testing.T) {
	f := newFuture()
	if f.Ready() {
		t.Fatal("fresh future ready")
	}
	if _, _, ok := f.WaitTimeout(10 * time.Millisecond); ok {
		t.Fatal("unresolved future reported ready")
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		f.complete([]byte("done"), nil)
	}()
	scalars, err, ok := f.WaitTimeout(5 * time.Second)
	if !ok || err != nil || string(scalars) != "done" {
		t.Fatalf("%q %v %v", scalars, err, ok)
	}
	if !f.Ready() {
		t.Fatal("resolved future not ready")
	}
	select {
	case <-f.Done():
	default:
		t.Fatal("Done channel not closed")
	}
}

func TestArgSeqPanicsOnWrongType(t *testing.T) {
	w := rts.NewWorld(1)
	defer w.Close()
	s, err := dseq.New(w.Comm(0), dseq.Float64, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	call := &ServerCall{Op: "op", Args: []dseq.Transferable{s}}
	if got := ArgSeq[float64](call, 0); got != s {
		t.Fatal("ArgSeq returned wrong sequence")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch did not panic")
		}
	}()
	ArgSeq[int32](call, 0)
}

func TestSeqArgsFloat64Validation(t *testing.T) {
	w := rts.NewWorld(2)
	defer w.Close()
	descs := []ArgDesc{{Name: "a", Dir: In, Elem: "double"}, {Name: "b", Dir: Out, Elem: "double"}}
	factory := SeqArgsFloat64(descs)
	err := w.Run(func(c *rts.Comm) error {
		args, err := factory(c)
		if err != nil {
			return err
		}
		if len(args) != 2 || args[0].Len() != 0 || args[1].Len() != 0 {
			t.Errorf("args %v", args)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMethodAndDirStrings(t *testing.T) {
	if Centralized.String() != "centralized" || Multiport.String() != "multi-port" {
		t.Fatal("method names")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method name")
	}
	if In.String() != "in" || Out.String() != "out" || InOut.String() != "inout" || Dir(9).String() == "" {
		t.Fatal("dir names")
	}
}

func TestOpTableRoundTrip(t *testing.T) {
	ops := []OpDesc{
		{Name: "f", Args: []ArgDesc{{Name: "a", Dir: In, Elem: "double", Spec: dist.Cyclic{BlockSize: 2}}}},
		{Name: "g"},
	}
	e := cdr.NewEncoder(cdr.NativeOrder)
	encodeOpTable(e, ops)
	got, err := decodeOpTable(cdr.NewDecoder(e.Bytes(), cdr.NativeOrder))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "f" || got[0].Args[0].Spec.String() != "cyclic(2)" {
		t.Fatalf("table %+v", got)
	}
	if len(got[1].Args) != 0 {
		t.Fatalf("empty op grew args: %+v", got[1])
	}
}
