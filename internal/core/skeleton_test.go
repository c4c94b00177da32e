package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/zcodec"
)

// shapeCase is one row of the table the two tests below walk: an invocation
// that takes one transfer shape, at two client and two server threads, with
// what the fixed skeleton of DESIGN.md §8 costs and reports for it. The
// numbers and sets were measured at the parent of the change that folded the
// three client engines into one skeleton; a change that moves one of them has
// changed the collective sequence or the observable phases of that shape.
type shapeCase struct {
	name   string
	method Method
	// "put" takes an in argument, "get" returns an out one, "swap" an inout
	// one; "fill" takes a 64-element in argument and returns an out one.
	op       string
	elems    int // shapeChunk*4 and up streams; below 2*shapeChunk rides inline
	compress bool
	sharded  bool // the invocation carries a shard key
	// Collectives per invocation on the client's lane communicator and on
	// the server's engine communicator (one full serving round: directive,
	// the three agreements, the transfers, the verdict).
	client, server int
	shapeSets
}

const shapeChunk = 128

// What thread 0 and the other threads populate, per shape: the caller's Timing
// fields, the client's span phases, the server's span phases.
type shapeSets struct{ timing, spans, served [2]string }

var (
	inlineSets = shapeSets{
		timing: [2]string{"Total Gather Scatter Pack SendRecv", "Total Gather Scatter"},
		spans:  [2]string{"bind invoke gather pack sendrecv scatter", "bind invoke gather scatter"},
		served: [2]string{"admission queue upcall recv-xfer send-xfer", "upcall recv-xfer send-xfer"}}
	chunkedInSets = shapeSets{
		timing: [2]string{"Total Gather Scatter Pack SendRecv", "Total Gather Scatter SendRecv"},
		spans:  [2]string{"bind invoke gather pack sendrecv scatter chunk-send", "bind invoke gather sendrecv scatter chunk-send"},
		served: [2]string{"admission queue upcall recv-xfer send-xfer chunk-recv", "upcall recv-xfer send-xfer chunk-recv"}}
	chunkedInOutSets = shapeSets{
		timing: chunkedInSets.timing,
		spans:  [2]string{"bind invoke gather pack sendrecv scatter chunk-send chunk-recv", "bind invoke gather sendrecv scatter chunk-send chunk-recv"},
		served: [2]string{"admission queue upcall recv-xfer send-xfer chunk-send chunk-recv", "upcall recv-xfer send-xfer chunk-send chunk-recv"}}
	// A chunked back leg after an inline forward leg: the forward leg's fields
	// and phases are the inline shape's, the back leg's the chunked one's.
	chunkedOutSets = shapeSets{
		timing: inlineSets.timing,
		spans:  [2]string{"bind invoke gather pack sendrecv scatter chunk-recv", "bind invoke gather scatter chunk-recv"},
		served: [2]string{"admission queue upcall recv-xfer send-xfer chunk-send", "upcall recv-xfer send-xfer chunk-send"}}
	// A direct leg runs the chunk mover between the owning threads, so every
	// thread that sources or sinks a step records it: a chunk span per step,
	// where the centralized shapes have them at the threads that gather and
	// scatter.
	directInSets = shapeSets{
		timing: [2]string{"Total Pack SendRecv Unpack Barrier", "Total Pack SendRecv Unpack Barrier"},
		spans:  [2]string{"bind invoke pack sendrecv unpack barrier chunk-send", "bind invoke pack sendrecv unpack barrier chunk-send"},
		served: [2]string{"admission queue upcall recv-xfer send-xfer chunk-recv", "upcall recv-xfer send-xfer chunk-recv"}}
	directInOutSets = shapeSets{
		timing: directInSets.timing,
		spans:  [2]string{"bind invoke pack sendrecv unpack barrier chunk-send chunk-recv", "bind invoke pack sendrecv unpack barrier chunk-send chunk-recv"},
		served: [2]string{"admission queue upcall recv-xfer send-xfer chunk-send chunk-recv", "upcall recv-xfer send-xfer chunk-send chunk-recv"}}
)

var invocationShapes = []shapeCase{
	{name: "inline-in", method: Centralized, op: "put", elems: 64, client: 5, server: 9, shapeSets: inlineSets},
	{name: "inline-out", method: Centralized, op: "get", elems: 64, client: 5, server: 9, shapeSets: inlineSets},
	// Each leg is placed by itself: a result one element short of two chunks
	// rides in the reply. A shard key changes where the call goes, not its
	// legs: a sharded call costs what the same call without a key does.
	{name: "inline-out-under-two-chunks", method: Centralized, op: "get", elems: 2*shapeChunk - 1, client: 5, server: 9, shapeSets: inlineSets},
	{name: "inline-out-sharded", method: Centralized, op: "get", elems: 64, sharded: true, client: 5, server: 9, shapeSets: inlineSets},
	{name: "chunked-out", method: Centralized, op: "get", elems: 4 * shapeChunk, client: 6, server: 10, shapeSets: chunkedOutSets},
	{name: "chunked-out-sharded", method: Centralized, op: "get", elems: 4 * shapeChunk, sharded: true, client: 6, server: 10, shapeSets: chunkedOutSets},
	{name: "inline-in-chunked-out", method: Centralized, op: "fill", elems: 4 * shapeChunk, client: 7, server: 11, shapeSets: chunkedOutSets},
	{name: "chunked-in", method: Centralized, op: "put", elems: 4 * shapeChunk, client: 8, server: 10, shapeSets: chunkedInSets},
	{name: "chunked-inout", method: Centralized, op: "swap", elems: 4 * shapeChunk, client: 10, server: 12, shapeSets: chunkedInOutSets},
	// Compression costs no collective: the sender's mask rides the token
	// (client) or the directive (server), so a compressed row is its raw twin.
	{name: "chunked-in-compressed", method: Centralized, op: "put", elems: 4 * shapeChunk, compress: true,
		client: 8, server: 10, shapeSets: chunkedInSets},
	{name: "chunked-out-compressed", method: Centralized, op: "get", elems: 4 * shapeChunk, compress: true,
		client: 6, server: 10, shapeSets: chunkedOutSets},
	{name: "chunked-inout-compressed", method: Centralized, op: "swap", elems: 4 * shapeChunk, compress: true,
		client: 10, server: 12, shapeSets: chunkedInOutSets},
	{name: "direct-in", method: Multiport, op: "put", elems: 64, client: 6, server: 8, shapeSets: directInSets},
	{name: "direct-inout", method: Multiport, op: "swap", elems: 64, client: 6, server: 8, shapeSets: directInOutSets},
}

// shapeOps is the operation table of the shape tests: handlers that issue no
// collective of their own, so the engine communicator counts the skeleton
// alone. upcall sees every upcall on every computing thread.
func shapeOps(upcall func(*ServerCall)) []Operation {
	arg := func(dir Dir) []ArgDesc { return []ArgDesc{{Name: "arr", Dir: dir, Elem: "double"}} }
	put := OpDesc{Name: "put", Args: arg(In)}
	get := OpDesc{Name: "get", Args: arg(Out)}
	swap := OpDesc{Name: "swap", Args: arg(InOut)}
	fill := OpDesc{Name: "fill", Args: []ArgDesc{{Name: "seed", Dir: In, Elem: "double"}, {Name: "arr", Dir: Out, Elem: "double"}}}
	resize := func(call *ServerCall, arg int) error {
		n, err := call.In.ReadLong()
		if err != nil {
			return orb.Marshal(err)
		}
		arr := ArgSeq[float64](call, arg)
		if err := arr.ResizeAlloc(int(n)); err != nil {
			return err
		}
		arr.FillFunc(func(g int) float64 { return float64(g) + 0.5 })
		return nil
	}
	return []Operation{
		{Desc: put, NewArgs: SeqArgsFloat64(put.Args), Handler: func(call *ServerCall) error {
			upcall(call)
			return nil
		}},
		{Desc: get, NewArgs: SeqArgsFloat64(get.Args), Handler: func(call *ServerCall) error {
			upcall(call)
			return resize(call, 0)
		}},
		{Desc: fill, NewArgs: SeqArgsFloat64(fill.Args), Handler: func(call *ServerCall) error {
			upcall(call)
			return resize(call, 1)
		}},
		{Desc: swap, NewArgs: SeqArgsFloat64(swap.Args), Handler: func(call *ServerCall) error {
			upcall(call)
			local := ArgSeq[float64](call, 0).LocalData()
			for i := range local {
				local[i] = -local[i]
			}
			return nil
		}},
	}
}

// run performs the row's invocation calls times from a fresh two-thread
// client against a fresh two-thread server, handing each call's Timing and
// the lane communicator to check, and returns the two sides' recorders.
func (sc shapeCase) run(t *testing.T, calls int, upcall func(*ServerCall), check func(c *rts.Comm, b *Binding, tm Timing) error) (client, server *obs.Recorder) {
	t.Helper()
	client, server = obs.NewRecorder(1024), obs.NewRecorder(1024)
	tc := startClusterOps(t, 2, true, func() []Operation { return shapeOps(upcall) }, func(o *ExportOptions) {
		o.Trace = server
		if sc.compress {
			o.Compression, o.CompressionPolicy = zcodec.MaskAll, zcodec.PolicyAlways
		}
	})
	opts := BindOptions{Method: sc.method, Timeout: testTimeout, StreamChunkElems: shapeChunk, Trace: client}
	if sc.compress {
		opts.Compression, opts.CompressionPolicy = zcodec.MaskAll, zcodec.PolicyAlways
	}
	tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
		dir := map[string]Dir{"put": In, "get": Out, "fill": Out, "swap": InOut}[sc.op]
		n := sc.elems
		if dir == Out {
			n = 0
		}
		arr, err := dseq.New(c, dseq.Float64, n, nil)
		if err != nil {
			return err
		}
		arr.FillFunc(func(g int) float64 { return float64(g) })
		args := []DistArg{{Dir: dir, Seq: arr}}
		if sc.op == "fill" {
			seed, err := dseq.New(c, dseq.Float64, 64, nil)
			if err != nil {
				return err
			}
			args = []DistArg{InSeq(seed), args[0]}
		}
		scalars := ScalarEncoder()
		scalars.WriteLong(int32(sc.elems))
		var key []byte
		if sc.sharded {
			key = []byte("shard")
		}
		for i := 0; i < calls; i++ {
			var tm Timing
			if _, err := b.invokeBlocking(sc.method, sc.op, key, scalars.Bytes(), args, &tm); err != nil {
				return err
			}
			if arr.Len() != sc.elems {
				return fmt.Errorf("argument holds %d elements after the call, want %d", arr.Len(), sc.elems)
			}
			// Reported, not returned: a mismatch on one thread must not
			// strand the other in the next call's collectives.
			if err := check(c, b, tm); err != nil {
				t.Errorf("thread %d, call %d: %v", c.Rank(), i, err)
			}
		}
		return nil
	})
	return client, server
}

// TestCollectivesPerInvocation makes the fixed collective skeleton a number:
// per transfer shape, how many collectives one invocation enters on the
// client's lane communicator and on the server's engine communicator — the
// same on every thread and on every call, whatever the call moves.
func TestCollectivesPerInvocation(t *testing.T) {
	for _, sc := range invocationShapes {
		t.Run(sc.name, func(t *testing.T) {
			var mu sync.Mutex
			var upcalls [2][]int // per computing thread: the engine communicator's count at each upcall
			last := [2]int{-1, -1}
			sc.run(t, 3, func(call *ServerCall) {
				mu.Lock()
				upcalls[call.Comm.Rank()] = append(upcalls[call.Comm.Rank()], call.Comm.Collectives())
				mu.Unlock()
			}, func(c *rts.Comm, b *Binding, _ Timing) error {
				now, prev := b.Comm().Collectives(), last[c.Rank()]
				last[c.Rank()] = now
				if prev >= 0 && now-prev != sc.client {
					return fmt.Errorf("%d collectives on the lane communicator, want %d", now-prev, sc.client)
				}
				return nil
			})
			for r, seen := range upcalls {
				if len(seen) != 3 {
					t.Fatalf("server thread %d saw %d upcalls, want 3", r, len(seen))
				}
				for i := 1; i < len(seen); i++ {
					if got := seen[i] - seen[i-1]; got != sc.server {
						t.Errorf("server thread %d, call %d: %d collectives on the engine communicator, want %d", r, i, got, sc.server)
					}
				}
			}
		})
	}
}

// TestTimingPopulated pins, per transfer shape, which Timing fields an
// invocation fills in and which span phases the two sides record, at thread
// 0 and at the others.
func TestTimingPopulated(t *testing.T) {
	for _, sc := range invocationShapes {
		t.Run(sc.name, func(t *testing.T) {
			client, server := sc.run(t, 2, func(*ServerCall) {}, func(c *rts.Comm, _ *Binding, tm Timing) error {
				var got []string
				v := reflect.ValueOf(tm)
				for i := 0; i < v.NumField(); i++ {
					if v.Field(i).Interface().(time.Duration) > 0 {
						got = append(got, v.Type().Field(i).Name)
					}
				}
				if want := sc.timing[min(c.Rank(), 1)]; strings.Join(got, " ") != want {
					return fmt.Errorf("Timing fields populated: %v, want %s", got, want)
				}
				return nil
			})
			for r := 0; r < 2; r++ {
				if got := phasesAt(client, r); got != sc.spans[r] {
					t.Errorf("client thread %d recorded %q, want %q", r, got, sc.spans[r])
				}
				if got := phasesAt(server, r); got != sc.served[r] {
					t.Errorf("server thread %d recorded %q, want %q", r, got, sc.served[r])
				}
			}
		})
	}
}

// phasesAt lists the distinct phases rec holds for one thread, in phase order.
func phasesAt(rec *obs.Recorder, rank int) string {
	seen := map[obs.Phase]bool{}
	for _, sp := range rec.Spans() {
		if int(sp.Rank) == rank {
			seen[sp.Phase] = true
		}
	}
	phases := make([]int, 0, len(seen))
	for ph := range seen {
		phases = append(phases, int(ph))
	}
	sort.Ints(phases)
	names := make([]string, len(phases))
	for i, ph := range phases {
		names[i] = obs.Phase(ph).String()
	}
	return strings.Join(names, " ")
}
