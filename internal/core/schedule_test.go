package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/obs"
	"repro/internal/rts"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestChunkSchedule: the steps of a schedule tile every move exactly once, in
// order, whatever the chunk size does to the move's length — one element, one
// short of it, exactly it, one over — and a full walk allocates nothing.
func TestChunkSchedule(t *testing.T) {
	const length = 13
	moves := []dist.Move{
		{SrcRank: 0, DstRank: 1, SrcOff: 3, DstOff: 40, Len: length},
		{SrcRank: 2, DstRank: 0, SrcOff: 0, DstOff: 7, Len: 0}, // an empty move has no step
		{SrcRank: 1, DstRank: 1, SrcOff: 9, DstOff: 0, Len: 1},
		{SrcRank: 1, DstRank: 2, SrcOff: 10, DstOff: 5, Len: 2 * length},
	}
	for _, ce := range []int{1, length - 1, length, length + 1} {
		sc := dist.Schedule{Moves: moves, CE: ce}
		for mi, m := range moves {
			steps := 0
			for off := 0; off < m.Len; steps++ {
				st, ok := sc.Next()
				if !ok {
					t.Fatalf("ce %d: the schedule ended inside move %d at %d of %d", ce, mi, off, m.Len)
				}
				n := min(m.Len-off, ce)
				want := dist.Step{Src: m.SrcRank, Dst: m.DstRank, SrcOff: m.SrcOff + off, DstOff: m.DstOff + off, N: n, Last: off+n == m.Len}
				if st != want {
					t.Fatalf("ce %d, move %d at %d: step %+v, want %+v", ce, mi, off, st, want)
				}
				off += n
			}
			if got := dist.ChunkCount(m.Len, ce); got != steps {
				t.Fatalf("ce %d: ChunkCount says %d steps for a move of %d, the walk cut %d", ce, got, m.Len, steps)
			}
		}
		if st, ok := sc.Next(); ok {
			t.Fatalf("ce %d: a step past the last move: %+v", ce, st)
		}
	}
	steps := 0
	if allocs := testing.AllocsPerRun(100, func() {
		whole := [1]dist.Move{{Len: 1 << 19}}
		for _, plan := range [][]dist.Move{moves, whole[:]} {
			sc := dist.Schedule{Moves: plan, CE: 8192}
			for _, ok := sc.Next(); ok; _, ok = sc.Next() {
				steps++
			}
		}
	}); allocs != 0 || steps != 101*(3+64) {
		t.Fatalf("a full walk allocates %.0f objects over %d steps", allocs, steps)
	}
}

// failingConns is a connSource nobody may consult.
type failingConns struct{ t *testing.T }

func (f failingConns) dataConn(dst int) (*transport.Conn, error) {
	f.t.Errorf("a leg with no step resolved the connection to thread %d", dst)
	return nil, fmt.Errorf("no connection")
}

// TestEmptyLegCostsNothing: a thread that sources no step of a direct leg
// builds no sender and resolves no connection, and one that sinks none arms no
// timer and waits for nothing — an in-only call's back leg on the client, an
// out-only call's receive leg on the server.
func TestEmptyLegCostsNothing(t *testing.T) {
	plans := [][]dist.Move{nil, {{SrcRank: 1, DstRank: 1, Len: 100}}}
	none := func(int) dseq.Transferable { t.Error("an empty leg touched an argument"); return nil }
	span := func(time.Time) { t.Error("an empty leg recorded a chunk") }
	w := frameWait{ch: make(chan *wire.Data), timeout: time.Minute}
	conns := failingConns{t}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := sendSteps(conns, 2, 7, 0, false, 8, plans, none, span); err != nil {
			t.Error(err)
		}
		if err := recvSteps(&w, 0, 2, true, 8, plans, none, span); err != nil {
			t.Error(err)
		}
		if err := recvSteps(&w, 0, 2, true, 8, nil, none, span); err != nil {
			t.Error(err)
		}
	}); allocs != 0 || w.t != nil {
		t.Fatalf("a leg with no step allocated %.0f objects (timer armed: %v)", allocs, w.t != nil)
	}
}

// cyclicIota asks a two-thread multi-port server for an out result of elems
// elements into a sequence dealt out one element at a time: every element is a
// move of the reverse plan.
func cyclicIota(c *rts.Comm, b *Binding, elems int) error {
	out, err := dseq.New(c, dseq.Float64, 0, dist.Cyclic{BlockSize: 1})
	if err != nil {
		return err
	}
	n := ScalarEncoder()
	n.WriteLong(int32(elems))
	if _, err := b.Invoke("iota", n.Bytes(), []DistArg{OutSeq(out)}); err != nil {
		return err
	}
	for i, v := range out.LocalData() {
		if want := float64(i*c.Size()+c.Rank()) + 0.5; v != want {
			return fmt.Errorf("thread %d: element %d is %v, want %v", c.Rank(), i, v, want)
		}
	}
	if out.Len() != elems {
		return fmt.Errorf("result holds %d elements, want %d", out.Len(), elems)
	}
	return nil
}

// TestDirectLegStepBound: a direct leg whose plan alone addresses more frames
// to one thread than its sink holds is refused — on the back leg by every
// server thread through the send leg's agreement and so, in the reply, by every
// client thread; on the forward leg by every client thread before the header
// leaves — with one error that names the count and the bound, in milliseconds.
// (Return flows are written before the Reply: before the bound, the 10 000
// single-element moves into each client thread filled its sink, blocked the
// read loop the Reply was queued behind, and the call ended at the client
// timeout.) The same plan a fifth the size still goes through, and so does the
// next call on the binding after a refusal.
func TestDirectLegStepBound(t *testing.T) {
	const fine, coarse = 20000, 4000
	defer testutil.LeakCheck(t)()
	t.Run("body", func(t *testing.T) {
		defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
		var served, received frameCount
		tc := startCluster(t, 2, true, nil, func(o *ExportOptions) {
			o.Server.Transport = &transport.Options{FrameHook: served.hook}
		})
		opts := BindOptions{Method: Multiport, Timeout: testTimeout, Transport: &transport.Options{FrameHook: received.hook}}
		w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
		defer w.Close()
		bindings := make([]*Binding, 2)
		if err := w.Run(func(c *rts.Comm) (err error) {
			bindings[c.Rank()], err = SPMDBind(c, "example", tc.ns.Addr(), opts)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, b := range bindings {
				b.Close()
			}
		}()
		// A refusal is arithmetic on a plan of 20 000 moves: tens of milliseconds,
		// a second under the race detector, never the client timeout.
		within := time.Second
		if raceEnabled {
			within = testTimeout / 4
		}
		call := func(fn func(c *rts.Comm, b *Binding) error) string {
			t.Helper()
			return sameOnEveryThreadOf(t, w, within, func(c *rts.Comm) error { return fn(c, bindings[c.Rank()]) })
		}
		want := fmt.Sprintf("moves %d pieces into thread 0, more than the %d one thread buffers", fine/2, bucketCapacity)

		if got := call(func(c *rts.Comm, b *Binding) error { return cyclicIota(c, b, coarse) }); got != "nil" {
			t.Fatalf("an out result of %d moves: %s", coarse, got)
		}
		served.take()
		received.take()
		if got := call(func(c *rts.Comm, b *Binding) error { return cyclicIota(c, b, fine) }); !strings.Contains(got, want) {
			t.Fatalf("an out result of %d moves ended with\n  %s\nwant a refusal saying %q", fine, got, want)
		}
		if got, _ := received.take(); got[wire.MsgData] != 0 || got[wire.MsgReply] != 1 {
			t.Fatalf("the client read %v during the refused back leg, want the Reply alone", got)
		}
		if got := call(func(c *rts.Comm, b *Binding) error { return cyclicIota(c, b, coarse) }); got != "nil" {
			t.Fatalf("the call after a refused back leg: %s", got)
		}

		// The forward leg: the same plan the other way round.
		served.take()
		if got := call(func(c *rts.Comm, b *Binding) error {
			in, err := dseq.New(c, dseq.Float64, fine, dist.Cyclic{BlockSize: 1})
			if err != nil {
				return err
			}
			_, err = b.Invoke("sum", ScalarEncoder().Bytes(), []DistArg{InSeq(in)})
			return err
		}); !strings.Contains(got, want) {
			t.Fatalf("an in argument of %d moves ended with\n  %s\nwant a refusal saying %q", fine, got, want)
		}
		if got, _ := served.take(); len(got) != 0 {
			t.Fatalf("the server read %v of a forward leg refused before a byte was sent", got)
		}
		if got := call(func(c *rts.Comm, b *Binding) error { return cyclicIota(c, b, coarse) }); got != "nil" {
			t.Fatalf("the call after a refused forward leg: %s", got)
		}
	})
}

// TestDirectChunkElems pins the direct legs' chunk-size rule on plans alone:
// the base size while every destination's step count fits maxStreamChunks,
// doubled until it does, left alone once no move is cut — a plan of many short
// moves is not helped by larger chunks — and refused past the sink's capacity.
func TestDirectChunkElems(t *testing.T) {
	plan := func(moves, length, dsts int) []dist.Move {
		p := make([]dist.Move, moves)
		for i := range p {
			p[i] = dist.Move{SrcRank: 0, DstRank: i % dsts, Len: length}
		}
		return p
	}
	for _, tt := range []struct {
		name  string
		plans [][]dist.Move
		dsts  int
		want  int // 0: refused
	}{
		{"nothing to move", nil, 2, 64},
		{"fits at the base size", [][]dist.Move{plan(2, 64*maxStreamChunks, 2)}, 2, 64},
		{"one thread over the count: doubled twice", [][]dist.Move{plan(2, 64*maxStreamChunks, 2), nil, plan(1, 3*64*maxStreamChunks-1, 1)}, 2, 256},
		{"short moves over the count: nothing to raise", [][]dist.Move{plan(2*bucketCapacity, 64, 2)}, 2, 64},
		{"short moves over the capacity", [][]dist.Move{plan(2*bucketCapacity+2, 3, 2)}, 2, 0},
		{"over the capacity in one of many threads", [][]dist.Move{plan(40, 3, 40), plan(bucketCapacity, 1, 1)}, 40, 0},
	} {
		got, err := directChunkElems(64, tt.dsts, tt.plans)
		if got != tt.want || (err == nil) != (tt.want != 0) {
			t.Errorf("%s: chunk size %d (%v), want %d", tt.name, got, err, tt.want)
		}
	}
}

// TestDirectLegFrames pins what the paper's argument puts on the wire as a
// multi-port in argument at two client and two server threads: every server
// thread takes its half in 32 chunks of 8 192 elements, none of which needs a
// frame over the 64 KiB class, where it took one 2 MiB message in 8 fragments
// before the direct legs ran the chunk mover.
func TestDirectLegFrames(t *testing.T) {
	const elems = 1 << 19
	var mu sync.Mutex
	var data, biggest, fragments int
	hook := func(h wire.Header) {
		mu.Lock()
		defer mu.Unlock()
		switch h.Type {
		case wire.MsgData:
			data++
			biggest = max(biggest, int(h.Size))
		case wire.MsgFragment:
			fragments++
		}
	}
	rec := obs.NewRecorder(1024)
	tc := startCluster(t, 2, true, nil, func(o *ExportOptions) {
		o.Trace = rec
		o.Server.Transport = &transport.Options{FrameHook: hook}
	})
	tc.runClient(t, 2, Multiport, func(c *rts.Comm, b *Binding) error {
		in, err := dseq.New(c, dseq.Float64, elems, nil)
		if err != nil {
			return err
		}
		in.FillFunc(func(int) float64 { return 1 })
		reply, err := b.Invoke("sum", ScalarEncoder().Bytes(), []DistArg{InSeq(in)})
		if err != nil {
			return err
		}
		if sum, err := ScalarDecoder(reply); err != nil {
			return err
		} else if v, err := sum.ReadDouble(); err != nil || v != elems {
			return fmt.Errorf("sum %v (%v), want %d", v, err, elems)
		}
		return nil
	})
	mu.Lock()
	defer mu.Unlock()
	if want := elems / DefaultStreamChunkElems; data != want || fragments != 0 || biggest > 1<<16+bufpool.Headroom {
		t.Fatalf("the server read %d Data frames (largest %d bytes) and %d fragments, want %d frames of the 64 KiB class", data, biggest, fragments, want)
	}
	for rank := int32(0); rank < 2; rank++ {
		chunks := 0
		for _, sp := range rec.Spans() {
			if sp.Phase == obs.PhaseChunkRecv && sp.Rank == rank {
				chunks++
			}
		}
		if chunks != elems/2/DefaultStreamChunkElems {
			t.Errorf("server thread %d took %d chunks, want %d", rank, chunks, elems/2/DefaultStreamChunkElems)
		}
	}
}

// TestMultiportMatrix moves in, out and inout arguments between three client
// and two server threads under every pairing of client and server
// distributions — moves a chunk does not divide, moves shorter than a chunk, a
// client thread that holds nothing — at three chunk sizes, and checks the
// contents on every thread.
func TestMultiportMatrix(t *testing.T) {
	const n = 1000
	clientSpecs := []dist.Spec{dist.Block{}, dist.Cyclic{BlockSize: 3}, dist.Proportions{P: []int{5, 0, 2}}}
	serverSpecs := []dist.Spec{dist.Block{}, dist.Cyclic{BlockSize: 5}}
	for _, ss := range serverSpecs {
		tc := startCluster(t, 2, true, ss)
		for _, cs := range clientSpecs {
			for _, chunk := range []int{7, 64, 0} {
				t.Run(fmt.Sprintf("%v-to-%v/chunk-%d", cs, ss, chunk), func(t *testing.T) {
					opts := BindOptions{Method: Multiport, Timeout: testTimeout, StreamChunkElems: chunk}
					tc.runClientOpts(t, 3, opts, func(c *rts.Comm, b *Binding) error {
						held := func(seq *dseq.Seq[float64], what string, want func(g int) float64) error {
							if seq.Len() != n {
								return fmt.Errorf("%s holds %d elements, want %d", what, seq.Len(), n)
							}
							for i, v := range seq.LocalData() {
								g, err := seq.Layout().Global(c.Rank(), i)
								if err != nil {
									return err
								}
								if v != want(g) {
									return fmt.Errorf("%s: thread %d element %d (global %d) is %v, want %v", what, c.Rank(), i, g, v, want(g))
								}
							}
							return nil
						}
						in, err := dseq.New(c, dseq.Float64, n, cs)
						if err != nil {
							return err
						}
						in.FillFunc(func(g int) float64 { return float64(g) })
						reply, err := b.Invoke("sum", ScalarEncoder().Bytes(), []DistArg{InSeq(in)})
						if err != nil {
							return fmt.Errorf("in: %w", err)
						}
						if d, err := ScalarDecoder(reply); err != nil {
							return err
						} else if sum, err := d.ReadDouble(); err != nil || sum != n*(n-1)/2 {
							return fmt.Errorf("in: the server summed %v (%v), want %d", sum, err, n*(n-1)/2)
						}
						if _, err := b.Invoke("scale", scaleScalars(3), []DistArg{InOutSeq(in)}); err != nil {
							return fmt.Errorf("inout: %w", err)
						}
						if err := held(in, "inout", func(g int) float64 { return 3 * float64(g) }); err != nil {
							return err
						}
						out, err := dseq.New(c, dseq.Float64, 0, cs)
						if err != nil {
							return err
						}
						size := ScalarEncoder()
						size.WriteLong(n)
						if _, err := b.Invoke("iota", size.Bytes(), []DistArg{OutSeq(out)}); err != nil {
							return fmt.Errorf("out: %w", err)
						}
						return held(out, "out", func(g int) float64 { return float64(g) + 0.5 })
					})
				})
			}
		}
	}
}
