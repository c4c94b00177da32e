package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Phase names one stage of a PARDIS invocation, on either side of the wire.
// Client-side phases mirror the core engine's Timing breakdown; server-side
// phases follow a request from admission through the collective upcall.
type Phase uint8

const (
	// PhaseBind is SPMDBind/SPMDBindRef: resolving the reference and
	// fetching the operation table.
	PhaseBind Phase = iota
	// PhaseInvoke is one whole invocation, entry to return.
	PhaseInvoke
	// PhaseGather is the client-side gather of distributed arguments onto
	// rank 0 (centralized method).
	PhaseGather
	// PhasePack is argument marshalling into wire form.
	PhasePack
	// PhaseSendRecv is the request/reply exchange on the wire, including
	// the wait for the server.
	PhaseSendRecv
	// PhaseScatter is the client-side scatter of results off rank 0.
	PhaseScatter
	// PhaseUnpack is result unmarshalling (multi-port receive loop).
	PhaseUnpack
	// PhaseBarrier is the closing client-side synchronization.
	PhaseBarrier
	// PhaseFutureWait is time a caller spent blocked in Future.Wait.
	PhaseFutureWait
	// PhaseAdmission is the server-side wait for an execution permit
	// (zero when a semaphore slot was free, the queue delay otherwise).
	PhaseAdmission
	// PhaseQueue is time spent in the object's collective queue between
	// dispatch and pickup by the serving loop.
	PhaseQueue
	// PhaseUpcall is the collective servant upcall.
	PhaseUpcall
	// PhaseRecvXfer is the server-side receive of distributed arguments
	// (scatter-unmarshal or multi-port Data consumption).
	PhaseRecvXfer
	// PhaseSendXfer is the server-side send of distributed results.
	PhaseSendXfer
	// PhaseChunkSend is one streamed-transfer chunk on its way out: the
	// collective gather-marshal of the range plus the wire write.
	PhaseChunkSend
	// PhaseChunkRecv is one streamed-transfer chunk on its way in: the wait
	// for the frame plus the collective scatter-unmarshal of the range.
	PhaseChunkRecv
	// PhaseResizeQuiesce is an elastic membership change draining the old
	// epoch: admission shed plus the wait for queued collectives to finish.
	PhaseResizeQuiesce
	// PhaseResizeMove is the state transfer of a membership change: the old
	// ranks marshalling their diff-plan moves and the new ranks applying them.
	PhaseResizeMove
	// PhaseResizePublish is the republication of a resized object: the new
	// epoch's reference replacing the old one in the naming domain.
	PhaseResizePublish
	numPhases
)

var phaseNames = [numPhases]string{
	"bind", "invoke", "gather", "pack", "sendrecv", "scatter", "unpack",
	"barrier", "future-wait", "admission", "queue", "upcall", "recv-xfer",
	"send-xfer", "chunk-send", "chunk-recv", "resize-quiesce", "resize-move",
	"resize-publish",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// ParsePhase maps a phase name from a span dump back to its Phase.
func ParsePhase(s string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == s {
			return Phase(i), true
		}
	}
	return 0, false
}

// Span is one recorded phase of one invocation. Timestamps are explicit
// nanoseconds — wall clock in production, virtual netsim time in
// deterministic tests — so spans from either clock dump and compare alike.
type Span struct {
	Trace uint64 // invocation token or request id; 0 when not tied to one
	Phase Phase
	Rank  int32 // computing thread rank within its world
	Start int64 // ns since the clock's epoch
	Dur   int64 // ns
	// Codec is the wire-compression codec mask the sender put on the phase's
	// chunks (zcodec mask bits); 0 means the transfer ran raw.
	Codec int32
}

// Recorder is a fixed-capacity ring buffer of spans. Record is mutex-guarded
// and allocation-free; when the ring is full the oldest spans are
// overwritten. All methods are no-ops on a nil receiver, so tracing can be
// wired unconditionally and disabled by leaving the recorder nil.
type Recorder struct {
	mu    sync.Mutex
	buf   []Span
	next  int    // ring write position
	total uint64 // spans ever recorded
}

// DefaultRecorderCapacity holds roughly a few hundred invocations' worth of
// spans without pinning real memory (48 B/span).
const DefaultRecorderCapacity = 4096

// NewRecorder returns a recorder keeping the last capacity spans
// (DefaultRecorderCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{buf: make([]Span, 0, capacity)}
}

// Record appends one span, overwriting the oldest when full.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
	}
	r.next++
	if r.next == cap(r.buf) {
		r.next = 0
	}
	r.total++
	r.mu.Unlock()
}

// Total returns the number of spans ever recorded (including overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Spans returns the retained spans, oldest first.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Reset discards all retained spans (the total keeps counting).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.next = 0
	r.mu.Unlock()
}

// Dump writes the retained spans as text, one span per line:
//
//	<trace> <phase> <rank> <start-ns> <dur-ns> <codec>
//
// The format round-trips through ParseSpans and is what
// pardis-wiredump -spans pretty-prints.
func (r *Recorder) Dump(w io.Writer) error {
	for _, s := range r.Spans() {
		if _, err := fmt.Fprintf(w, "%d %s %d %d %d %d\n",
			s.Trace, s.Phase, s.Rank, s.Start, s.Dur, s.Codec); err != nil {
			return err
		}
	}
	return nil
}

// ParseSpans reads a Dump-format span stream back. Blank lines and lines
// starting with '#' are skipped.
func ParseSpans(rd io.Reader) ([]Span, error) {
	var out []Span
	sc := bufio.NewScanner(rd)
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		var s Span
		var phase string
		// Sscanf stops at the sixth column without looking further, so the
		// column count is checked on its own.
		if n := len(strings.Fields(line)); n != 6 {
			return nil, fmt.Errorf("obs: span dump line %d: %d columns, want 6", ln, n)
		}
		if _, err := fmt.Sscanf(line, "%d %s %d %d %d %d",
			&s.Trace, &phase, &s.Rank, &s.Start, &s.Dur, &s.Codec); err != nil {
			return nil, fmt.Errorf("obs: span dump line %d: %v", ln, err)
		}
		p, ok := ParsePhase(phase)
		if !ok {
			return nil, fmt.Errorf("obs: span dump line %d: unknown phase %q", ln, phase)
		}
		s.Phase = p
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
