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

// TestChunkSchedule: a step packs up to a chunk of one thread pair's moves in
// plan order, so every flow is ⌈elements / chunk⌉ steps however many moves it
// has. The plan, listed pair by pair as Plan lists one, has a pair whose pieces
// are adjacent on the source side only, one adjacent on both sides, and an
// empty move inside a flow, which no step holds and which breaks nothing. Where
// pairs interleave in global order — Cyclic{1} to Block — Plan lists each
// pair's moves together, so each is one flow. A full walk allocates nothing.
func TestChunkSchedule(t *testing.T) {
	moves := []dist.Move{
		{SrcRank: 0, DstRank: 0, SrcOff: 9, DstOff: 20, Len: 2},
		{SrcRank: 0, DstRank: 1, SrcOff: 0, DstOff: 0, Len: 5},
		{SrcRank: 2, DstRank: 0, SrcOff: 0, DstOff: 7, Len: 0}, // empty: in no step
		{SrcRank: 0, DstRank: 1, SrcOff: 5, DstOff: 9, Len: 4}, // adjacent at the source only
		{SrcRank: 1, DstRank: 0, SrcOff: 0, DstOff: 0, Len: 3},
		{SrcRank: 1, DstRank: 0, SrcOff: 3, DstOff: 3, Len: 6}, // adjacent at both ends
	}
	type piece struct{ src, dst, n int }
	type step struct {
		src, dst, n int
		last        bool
		pieces      []piece
	}
	walk := func(moves []dist.Move, ce int) (steps []step) {
		sc := dist.Schedule{Moves: moves, CE: ce}
		for st, ok := sc.Next(); ok; st, ok = sc.Next() {
			s := step{src: st.Src, dst: st.Dst, n: st.N, last: st.Last}
			st.Pieces(func(srcOff, dstOff, n int) { s.pieces = append(s.pieces, piece{srcOff, dstOff, n}) })
			if p := s.pieces[0]; p.src != st.SrcOff || p.dst != st.DstOff {
				t.Fatalf("ce %d: step %+v starts at %d → %d, its first piece at %d → %d", ce, s, st.SrcOff, st.DstOff, p.src, p.dst)
			}
			steps = append(steps, s)
		}
		return steps
	}
	want := []step{
		{0, 0, 2, true, []piece{{9, 20, 2}}},
		{0, 1, 4, false, []piece{{0, 0, 4}}},
		{0, 1, 4, false, []piece{{4, 4, 1}, {5, 9, 3}}},
		{0, 1, 1, true, []piece{{8, 12, 1}}},
		{1, 0, 4, false, []piece{{0, 0, 3}, {3, 3, 1}}},
		{1, 0, 4, false, []piece{{4, 4, 4}}},
		{1, 0, 1, true, []piece{{8, 8, 1}}},
	}
	if got := walk(moves, 4); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("chunks of 4:\n got %v\nwant %v", got, want)
	}
	// Every chunk size walks the same elements pair by pair, one step per
	// chunk of each flow: one element, a flow less one, a flow, more.
	flows := [][3]int{{0, 0, 2}, {0, 1, 9}, {1, 0, 9}}
	for _, ce := range []int{1, 8, 9, 100} {
		steps, at := walk(moves, ce), 0
		for _, f := range flows {
			var elems []piece
			for k := 0; k < dist.ChunkCount(f[2], ce); k, at = k+1, at+1 {
				s := steps[at]
				if s.src != f[0] || s.dst != f[1] || s.n != min(ce, f[2]-k*ce) || s.last != (k == dist.ChunkCount(f[2], ce)-1) {
					t.Fatalf("ce %d: step %d of flow %v is %+v", ce, k, f, s)
				}
				for _, p := range s.pieces {
					for j := range p.n {
						elems = append(elems, piece{p.src + j, p.dst + j, 1})
					}
				}
			}
			var planned []piece
			for _, m := range moves {
				for j := 0; m.SrcRank == f[0] && m.DstRank == f[1] && j < m.Len; j++ {
					planned = append(planned, piece{m.SrcOff + j, m.DstOff + j, 1})
				}
			}
			if fmt.Sprint(elems) != fmt.Sprint(planned) {
				t.Fatalf("ce %d: flow %v moved\n %v\nwant\n %v", ce, f, elems, planned)
			}
		}
		if at != len(steps) {
			t.Fatalf("ce %d: %d steps past the last flow", ce, len(steps)-at)
		}
	}
	from, _ := dist.Cyclic{BlockSize: 1}.Layout(40, 2)
	to, _ := dist.Block{}.Layout(40, 2)
	plan, err := dist.Plan(from, to)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []string
	for _, s := range walk(plan, 8) {
		pairs = append(pairs, fmt.Sprintf("%d→%d:%d/%d", s.src, s.dst, s.n, len(s.pieces)))
	}
	if got, want := strings.Join(pairs, " "), "0→0:8/8 0→0:2/2 0→1:8/8 0→1:2/2 1→0:8/8 1→0:2/2 1→1:8/8 1→1:2/2"; len(plan) != 40 || got != want {
		t.Fatalf("the %d-move plan of Cyclic{1} to Block at 40 elements walks as\n %s\nwant\n %s", len(plan), got, want)
	}
	steps, elems := 0, 0
	if allocs := testing.AllocsPerRun(100, func() {
		whole := [1]dist.Move{{Len: 1 << 19}}
		for _, plan := range [][]dist.Move{moves, whole[:]} {
			sc := dist.Schedule{Moves: plan, CE: 8192}
			for st, ok := sc.Next(); ok; st, ok = sc.Next() {
				steps++
				st.Pieces(func(_, _, n int) { elems += n })
			}
		}
	}); allocs != 0 || steps != 101*(3+64) || elems != 101*(20+1<<19) {
		t.Fatalf("a full walk allocates %.0f objects over %d steps of %d elements", allocs, steps, elems)
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
	w := frameWait{s: &sink{ch: make(chan *wire.Data)}, timeout: time.Minute}
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
	}); allocs != 0 || w.s.t != nil {
		t.Fatalf("a leg with no step allocated %.0f objects (timer armed: %v)", allocs, w.s.t != nil)
	}
}

// TestDirectLegFinePlan: a direct leg moves a plan however fine. A Cyclic{1}
// argument of two client threads — every element a move of its own — goes in,
// inout and out against the two threads of a Block server at 20 000 and 10^6
// elements: every call ends within a second with exact contents on every
// thread, and no thread takes more Data frames than ⌈elements into it / chunk⌉
// plus its flows (one argument from each of two threads). Before a step packed
// a thread pair's moves, each of these calls was refused with MARSHAL: 20 000
// one-element moves are 10 000 steps into one thread, more than its sink
// holds. Under the race detector, where every element of a plan costs about
// twelve times as much and a 10^6-element call takes seconds, the 20 000 row
// runs alone.
func TestDirectLegFinePlan(t *testing.T) {
	defer testutil.LeakCheck(t)()
	t.Run("body", func(t *testing.T) {
		defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
		serverRec, clientRec := obs.NewRecorder(4096), obs.NewRecorder(4096)
		verify := OpDesc{Name: "verify", Args: []ArgDesc{{Name: "arr", Dir: In, Elem: "double"}}}
		tc := startClusterOps(t, 2, true, func() []Operation {
			return append(testObjectOps(nil), Operation{Desc: verify, NewArgs: SeqArgsFloat64(verify.Args),
				Handler: func(call *ServerCall) error {
					arr := ArgSeq[float64](call, 0)
					for i, v := range arr.LocalData() {
						if g, _ := arr.Layout().Global(call.Comm.Rank(), i); v != float64(g) {
							return fmt.Errorf("server thread %d: element %d is %v, want %d", call.Comm.Rank(), i, v, g)
						}
					}
					return nil
				}})
		}, func(o *ExportOptions) { o.Trace = serverRec })
		w := rts.NewWorld(2, rts.Options{RecvTimeout: testTimeout})
		defer w.Close()
		bindings := make([]*Binding, 2)
		if err := w.Run(func(c *rts.Comm) (err error) {
			bindings[c.Rank()], err = SPMDBind(c, "example", tc.ns.Addr(), BindOptions{Method: Multiport, Timeout: testTimeout, Trace: clientRec})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, b := range bindings {
				b.Close()
			}
		}()
		within, sizes := time.Second, []int{20000, 1000000}
		if raceEnabled {
			within, sizes = testTimeout/4, sizes[:1]
		}
		// frames checks the Data frames each thread of one side took in the
		// last call: n/2 elements from two flows.
		frames := func(side string, rec *obs.Recorder, n int) {
			t.Helper()
			took := make([]int, 2)
			for _, sp := range rec.Spans() {
				if sp.Phase == obs.PhaseChunkRecv {
					took[sp.Rank]++
				}
			}
			rec.Reset()
			for r, got := range took {
				if bound := dist.ChunkCount(n/2, DefaultStreamChunkElems) + 2; got == 0 || got > bound {
					t.Errorf("n %d: %s thread %d took %d Data frames, want 1 to %d", n, side, r, got, bound)
				}
			}
		}
		// held checks a client thread's share of a Cyclic{1} sequence.
		held := func(c *rts.Comm, seq *dseq.Seq[float64], n int, want func(g int) float64) error {
			if seq.Len() != n {
				return fmt.Errorf("the sequence holds %d elements, want %d", seq.Len(), n)
			}
			for i, v := range seq.LocalData() {
				if g := i*c.Size() + c.Rank(); v != want(g) {
					return fmt.Errorf("client thread %d: element %d (global %d) is %v, want %v", c.Rank(), i, g, v, want(g))
				}
			}
			return nil
		}
		for _, n := range sizes {
			// One sequence per thread goes through the three calls: in, then
			// scaled by 3, then overwritten.
			seqs := make([]*dseq.Seq[float64], 2)
			if err := w.Run(func(c *rts.Comm) error {
				seq, err := dseq.New(c, dseq.Float64, n, dist.Cyclic{BlockSize: 1})
				if err == nil {
					seq.FillFunc(func(g int) float64 { return float64(g) })
				}
				seqs[c.Rank()] = seq
				return err
			}); err != nil {
				t.Fatal(err)
			}
			call := func(leg string, fn func(c *rts.Comm, b *Binding, seq *dseq.Seq[float64]) error) {
				t.Helper()
				serverRec.Reset()
				clientRec.Reset()
				if got := sameOnEveryThreadOf(t, w, within, func(c *rts.Comm) error {
					return fn(c, bindings[c.Rank()], seqs[c.Rank()])
				}); got != "nil" {
					t.Fatalf("n %d, %s: %s", n, leg, got)
				}
			}
			call("in", func(c *rts.Comm, b *Binding, seq *dseq.Seq[float64]) error {
				_, err := b.Invoke("verify", ScalarEncoder().Bytes(), []DistArg{InSeq(seq)})
				return err
			})
			frames("server", serverRec, n)
			call("inout", func(c *rts.Comm, b *Binding, seq *dseq.Seq[float64]) error {
				if _, err := b.Invoke("scale", scaleScalars(3), []DistArg{InOutSeq(seq)}); err != nil {
					return err
				}
				return held(c, seq, n, func(g int) float64 { return 3 * float64(g) })
			})
			frames("server", serverRec, n)
			frames("client", clientRec, n)
			call("out", func(c *rts.Comm, b *Binding, seq *dseq.Seq[float64]) error {
				size := ScalarEncoder()
				size.WriteLong(int32(n))
				if _, err := b.Invoke("iota", size.Bytes(), []DistArg{OutSeq(seq)}); err != nil {
					return err
				}
				return held(c, seq, n, func(g int) float64 { return float64(g) + 0.5 })
			})
			frames("client", clientRec, n)
		}
	})
}

// TestChunkElemsFor pins the one chunk-size rule on flows alone: the base size
// while no thread is the destination of more than maxStreamChunks steps,
// doubled until none is, left alone once no flow is cut — many short flows are
// not helped by larger chunks — and refused only where more flows feed one
// thread than its sink holds. A centralized leg is a flow per argument into
// thread 0; a direct leg's plan counts in flows, not moves, however fine.
func TestChunkElemsFor(t *testing.T) {
	flows := func(count, length, dsts int) (fs [][2]int) {
		for i := range count {
			fs = append(fs, [2]int{i % dsts, length})
		}
		return fs
	}
	for _, tt := range []struct {
		name  string
		flows [][2]int // destination thread, elements
		dsts  int
		want  int // 0: refused
	}{
		{"nothing to move", nil, 2, 64},
		{"fits at the base size", flows(2, 64*maxStreamChunks, 2), 2, 64},
		{"one thread over the count: doubled twice", append(flows(2, 64*maxStreamChunks, 2), [2]int{0, 3*64*maxStreamChunks - 1}), 2, 256},
		{"a centralized leg: every argument's chunks count", flows(3, 64*maxStreamChunks, 1), 1, 256},
		{"short flows over the count: nothing to raise", flows(2*bucketCapacity, 64, 2), 2, 64},
		{"backstop: more flows into a thread than its sink holds", flows(2*bucketCapacity+2, 3, 2), 2, 0},
		{"backstop in one of many threads", append(flows(40, 3, 40), flows(bucketCapacity, 1, 1)...), 40, 0},
	} {
		got, err := chunkElemsFor(64, tt.dsts, len(tt.flows), func(k int) (int, int) { return tt.flows[k][0], tt.flows[k][1] })
		if got != tt.want || (err == nil) != (tt.want != 0) {
			t.Errorf("%s: chunk size %d (%v), want %d", tt.name, got, err, tt.want)
		}
	}
	// Cyclic{1} → Block over two threads each, 20 000 elements: 20 000 moves,
	// four flows of 5 000.
	from, _ := dist.Cyclic{BlockSize: 1}.Layout(20000, 2)
	to, _ := dist.Block{}.Layout(20000, 2)
	for base, want := range map[int]int{64: 64, 1: 16} {
		plans, ce, err := planDirect(base, 2, 2, func(i int) (f, tl dist.Layout, err error) {
			if i == 1 {
				f, tl = from, to
			}
			return f, tl, nil
		})
		if err != nil || ce != want || plans[0] != nil || len(plans[1]) != 20000 {
			t.Errorf("a fine plan from base %d: chunk size %d (%v), want %d", base, ce, err, want)
		}
	}
}

// TestDirectLegFrames pins what the paper's argument puts on the wire as a
// multi-port in argument at two client and two server threads: every server
// thread takes its half in 32 chunks of 8 192 elements, none of which needs a
// frame over the 64 KiB class, where it took one 2 MiB message before the
// direct legs ran the chunk mover.
func TestDirectLegFrames(t *testing.T) {
	const elems = 1 << 19
	var mu sync.Mutex
	var data, biggest int
	hook := func(h wire.Header) {
		mu.Lock()
		defer mu.Unlock()
		if h.Type == wire.MsgData {
			data++
			biggest = max(biggest, int(h.Size))
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
	if want := elems / DefaultStreamChunkElems; data != want || biggest > 1<<16+bufpool.Headroom {
		t.Fatalf("the server read %d Data frames (largest %d bytes), want %d frames of the 64 KiB class", data, biggest, want)
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
// client thread that holds nothing, one-element moves that steps pack — at
// three chunk sizes, and checks the contents on every thread.
func TestMultiportMatrix(t *testing.T) {
	const n = 1000
	clientSpecs := []dist.Spec{dist.Block{}, dist.Cyclic{BlockSize: 3}, dist.Proportions{P: []int{5, 0, 2}}, dist.Cyclic{BlockSize: 1}}
	serverSpecs := []dist.Spec{dist.Block{}, dist.Cyclic{BlockSize: 5}, dist.Cyclic{BlockSize: 1}}
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
