package obs

import (
	"strings"
	"testing"
)

func TestRecorderRecordAndSpans(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 3; i++ {
		r.Record(Span{Trace: uint64(i), Phase: PhaseInvoke, Rank: int32(i), Start: int64(i * 10), Dur: 5})
	}
	got := r.Spans()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, s := range got {
		if s.Trace != uint64(i) || s.Start != int64(i*10) {
			t.Fatalf("span %d = %+v", i, s)
		}
	}
	if r.Total() != 3 {
		t.Fatalf("total = %d, want 3", r.Total())
	}
}

func TestRecorderRingOverwritesOldest(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(Span{Trace: uint64(i)})
	}
	got := r.Spans()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i, s := range got {
		if want := uint64(6 + i); s.Trace != want {
			t.Fatalf("span %d trace = %d, want %d (oldest-first after wrap)", i, s.Trace, want)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	r.Reset()
	if len(r.Spans()) != 0 {
		t.Fatal("Reset did not clear spans")
	}
	if r.Total() != 10 {
		t.Fatal("Reset must not clear the running total")
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(Span{Trace: 1})
	r.Reset()
	if r.Spans() != nil || r.Total() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil || sb.Len() != 0 {
		t.Fatal("nil recorder Dump must write nothing")
	}
}

func TestDefaultCapacity(t *testing.T) {
	r := NewRecorder(0)
	if cap(r.buf) != DefaultRecorderCapacity {
		t.Fatalf("cap = %d, want %d", cap(r.buf), DefaultRecorderCapacity)
	}
}

func TestPhaseNamesRoundTrip(t *testing.T) {
	for p := Phase(0); p < numPhases; p++ {
		got, ok := ParsePhase(p.String())
		if !ok || got != p {
			t.Fatalf("phase %d (%q) does not round-trip", p, p)
		}
	}
	if _, ok := ParsePhase("no-such-phase"); ok {
		t.Fatal("ParsePhase accepted garbage")
	}
	if s := Phase(200).String(); s != "phase(200)" {
		t.Fatalf("out-of-range phase String = %q", s)
	}
}

func TestDumpParseRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	want := []Span{
		{Trace: 42, Phase: PhaseGather, Rank: 0, Start: 100, Dur: 50},
		{Trace: 42, Phase: PhaseSendRecv, Rank: 0, Start: 150, Dur: 300},
		{Trace: 43, Phase: PhaseUpcall, Rank: 3, Start: 500, Dur: 20},
	}
	for _, s := range want {
		r.Record(s)
	}
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpans(strings.NewReader("# comment\n\n" + sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestDumpParseShardColumn: the shard attribute survives a dump/parse round
// trip.
func TestDumpParseShardColumn(t *testing.T) {
	r := NewRecorder(8)
	want := []Span{
		{Trace: 7, Phase: PhaseSendRecv, Rank: 0, Start: 10, Dur: 5, Shard: 3},
		{Trace: 7, Phase: PhaseGather, Rank: 1, Start: 20, Dur: 2}, // unrouted: Shard 0
	}
	for _, s := range want {
		r.Record(s)
	}
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpans(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("round trip: %+v, want %+v", got, want)
	}
}

func TestParseSpansRejectsGarbage(t *testing.T) {
	if _, err := ParseSpans(strings.NewReader("1 gather 0 2 3 4 5\n")); err != nil {
		t.Fatalf("well-formed line rejected: %v", err)
	}
	for name, line := range map[string]string{
		"bad rank":          "1 gather zero 2 3 4 5",
		"unknown phase":     "1 warp 0 2 3 4 5",
		"five columns":      "1 gather 0 2 3",
		"six columns":       "1 gather 0 2 3 4",
		"bad sixth column":  "1 gather 0 2 3 x",
		"bad codec column":  "1 gather 0 2 3 4 x",
		"eight columns":     "1 gather 0 2 3 4 5 6",
		"trailing garbage":  "1 gather 0 2 3 4 5 x",
		"phase column only": "gather",
	} {
		if got, err := ParseSpans(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s accepted: %q parsed as %+v", name, line, got)
		}
	}
}

// Recording a span must not allocate: it sits on the invocation path of
// every traced request.
func TestRecordAllocFree(t *testing.T) {
	r := NewRecorder(64)
	s := Span{Trace: 7, Phase: PhasePack, Rank: 1, Start: 10, Dur: 2}
	if n := testing.AllocsPerRun(1000, func() { r.Record(s) }); n != 0 {
		t.Errorf("Record: %v allocs/op, want 0", n)
	}
	var nilR *Recorder
	if n := testing.AllocsPerRun(1000, func() { nilR.Record(s) }); n != 0 {
		t.Errorf("nil Record: %v allocs/op, want 0", n)
	}
}
