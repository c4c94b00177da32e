package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// A leg placed in the message carries one step per argument, and a peer can
// get any one of them wrong. The two tests below feed every such message to a
// real receiving side on a world without a receive timeout — what every example
// runs on — where a thread that leaves the walk at the bad step strands the
// others in the next step's collective for good.

// badSteps are the ways: write renders the bad argument's step behind the
// header — good is what it should have held — and reports what to append, raw,
// behind the last step; framed has the header announce frames all the same. why
// is what the refusal must say: ARG in it is the argument, COUNT what its owner
// says of a chunk one element too long.
var badSteps = []struct {
	name, why string
	framed    bool
	write     func(e *cdr.Encoder, good []float64) (after string)
}{
	{"well-formed chunk of the wrong count", "arg ARG: COUNT", false, func(e *cdr.Encoder, good []float64) string {
		writeStep(e, dseq.MarshalChunk(dseq.Float64, append(good, 0)))
		return ""
	}},
	{"truncated chunk", "arg ARG: cdr: truncated stream", false, func(e *cdr.Encoder, good []float64) string {
		chunk := dseq.MarshalChunk(dseq.Float64, good)
		writeStep(e, chunk[:len(chunk)-3])
		return ""
	}},
	{"fail marker", "arg ARG: dseq: peer marked chunk failed", false, func(e *cdr.Encoder, good []float64) string {
		writeStep(e, dseq.FailMarker)
		return ""
	}},
	{"octet sequence missing", "step 2 of the 3 the message carries", false, func(*cdr.Encoder, []float64) string { return "" }},
	{"extra bytes after the last step", "2 bytes after the last of the 3 steps", false, func(e *cdr.Encoder, good []float64) string {
		writeStep(e, dseq.MarshalChunk(dseq.Float64, good))
		return "xx"
	}},
	// Refused on sight, whatever the steps hold: nobody waits for a frame.
	{"good steps behind a header that announces frames", "bytes after the last of the 0 steps", true, func(e *cdr.Encoder, good []float64) string {
		writeStep(e, dseq.MarshalChunk(dseq.Float64, good))
		return ""
	}},
}

// stepOwners are who holds the range the bad step covers, on the receiving side
// of n threads: length elements dealt out by spec. wrongCount is how the owner
// refuses a chunk of one element more — a sole owner decoding into its storage,
// thread 0 splitting it between several.
var stepOwners = []struct {
	name, wrongCount string
	length           int
	spec             func(n int) dist.Spec
}{
	{"thread 0 alone", "cdr: invalid encoding: double sequence length 2 exceeds destination 1", 1, func(int) dist.Spec { return nil }},
	{"the last thread alone", "cdr: invalid encoding: double sequence length 65 exceeds destination 64", 64, func(n int) dist.Spec {
		p := make([]int, n)
		p[n-1] = 1
		return dist.Proportions{P: p}
	}},
	{"every thread", "dseq: layout inconsistency: chunk holds 65 of 64 elements", 64, func(int) dist.Spec { return nil }},
}

// whyOf is bad's why for the argument at pos, held by owner.
func whyOf(why string, pos, owner int) string {
	return strings.NewReplacer("ARG", fmt.Sprint(pos), "COUNT", stepOwners[owner].wrongCount).Replace(why)
}

// tripleOp is the operation the bad steps ride: three inout arguments — both
// legs carry all three — of 64 elements, blockwise, but for the one at pos,
// which owner describes.
func tripleOp(pos, owner, threads int) (OpDesc, []int) {
	desc := OpDesc{Name: fmt.Sprintf("triple-%d-%d", pos, owner)}
	lengths := []int{64, 64, 64}
	for i := range lengths {
		arg := ArgDesc{Name: fmt.Sprint("a", i), Dir: InOut, Elem: "double"}
		if i == pos {
			lengths[i], arg.Spec = stepOwners[owner].length, stepOwners[owner].spec(threads)
		}
		desc.Args = append(desc.Args, arg)
	}
	return desc, lengths
}

// writeSteps renders the three steps of a leg in the message behind its header:
// argument i holds lengths[i] elements of value i+1, and bad (nil: none) spoils
// the one at pos.
func writeSteps(e *cdr.Encoder, lengths []int, pos int, bad func(*cdr.Encoder, []float64) string) {
	after := ""
	for i, n := range lengths {
		good := make([]float64, n)
		for k := range good {
			good[k] = float64(i + 1)
		}
		if bad != nil && i == pos {
			after = bad(e, good)
		} else {
			writeStep(e, dseq.MarshalChunk(dseq.Float64, good))
		}
	}
	e.WriteRaw([]byte(after))
}

// TestBadStepInRequestDoesNotWedgeServer: a hand-rolled client sends a real
// object of s threads requests whose leg is in the message, one step of the
// three bad. Every one ends at once as a MARSHAL exception that says what was
// wrong — thread 0 refusing alone what it can tell from the message, the walk's
// fail markers and the agreement after it carrying the rest — and the next
// request on the same connection is served.
func TestBadStepInRequestDoesNotWedgeServer(t *testing.T) {
	for _, s := range []int{2, 3} {
		testutil.CheckGoroutines(t, fmt.Sprint("s", s), func(t *testing.T) {
			defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
			tc := startClusterWorld(t, rts.NewWorld(s), true, func() []Operation {
				var ops []Operation
				for pos := 0; pos < 3; pos++ {
					for owner := range stepOwners {
						desc, _ := tripleOp(pos, owner, s)
						ops = append(ops, Operation{Desc: desc, NewArgs: SeqArgsFloat64(desc.Args), Handler: func(call *ServerCall) error {
							local := ArgSeq[float64](call, 1).LocalData()
							for i := range local {
								local[i] = -local[i]
							}
							return nil
						}})
					}
				}
				return ops
			})
			tc.objMu.Lock()
			ref := tc.objects[0].Ref()
			tc.objMu.Unlock()
			cli := orb.NewClient()
			cli.Timeout = testTimeout
			defer cli.Close()

			token := uint32(0x1b00)
			// invoke sends op a request of method and chunk size ce with three steps
			// behind its header, bad (nil: none) spoiling the one at pos.
			invoke := func(op string, method Method, ce uint32, lengths []int, pos int, bad func(*cdr.Encoder, []float64) string) ([]byte, time.Duration, error) {
				token++
				h := &invocationHeader{Op: op, Method: method, ChunkElems: ce, Token: token, ClientRanks: 1, Scalars: ScalarEncoder().Bytes()}
				for _, n := range lengths {
					h.Args = append(h.Args, headerArg{Dir: InOut, Elem: "double", Layout: mustLayout(t, n, 1)})
				}
				e := orb.NewArgEncoder()
				h.encode(e)
				writeSteps(e, lengths, pos, bad)
				start := time.Now()
				reply, err := cli.Invoke(ref, op, e.Bytes(), false)
				return reply, time.Since(start), err
			}
			refused := func(name, why string, took time.Duration, err error) {
				t.Helper()
				var se *orb.SystemException
				if !errors.As(err, &se) || se.RepoID != orb.RepoMarshal || !strings.Contains(se.Message, why) {
					t.Fatalf("%s: ended with %v, want a MARSHAL exception saying %q", name, err, why)
				}
				if took > time.Second {
					t.Fatalf("%s: refused after %v", name, took)
				}
			}
			for pos := 0; pos < 3; pos++ {
				for owner := range stepOwners {
					desc, lengths := tripleOp(pos, owner, s)
					for _, bad := range badSteps {
						name := fmt.Sprintf("arg %d of %s: %s", pos, stepOwners[owner].name, bad.name)
						ce := uint32(0)
						if bad.framed {
							ce = 16
						}
						_, took, err := invoke(desc.Name, Centralized, ce, lengths, pos, bad.write)
						refused(name, whyOf(bad.why, pos, owner), took, err)
						// The well-formed request behind it, same connection: served, and
						// the inout result in the middle comes back negated.
						reply, _, err := invoke(desc.Name, Centralized, 0, lengths, pos, nil)
						if err != nil {
							t.Fatalf("%s: the next request ended with %v", name, err)
						}
						d, err := orb.ArgDecoder(reply)
						if err != nil {
							t.Fatal(err)
						}
						rh, err := freshReply(d, 0, false)
						if err != nil {
							t.Fatal(err)
						}
						if err := checkSteps(*d, desc.Args, In, rh.ChunkElems != 0); err != nil {
							t.Fatalf("%s: the next reply: %v", name, err)
						}
						for i, n := range lengths {
							step, _ := d.ReadOctets()
							vals, err := dseq.UnmarshalChunk(dseq.Float64, step)
							want := float64(i + 1)
							if i == 1 {
								want = -want
							}
							if err != nil || len(vals) != n || vals[0] != want || vals[n-1] != want {
								t.Fatalf("%s: the next reply's arg %d: %d elements of %v (%v), want %d of %v", name, i, len(vals), vals[:min(len(vals), 1)], err, n, want)
							}
						}
					}
				}
			}
			// A multi-port header always announces frames.
			desc, lengths := tripleOp(0, 0, s)
			_, took, err := invoke(desc.Name, Multiport, 16, lengths, 0, nil)
			refused("steps behind a multi-port header", "bytes after the last of the 0 steps", took, err)
			if _, _, err := invoke(desc.Name, Centralized, 0, lengths, 0, nil); err != nil {
				t.Fatalf("the request after the multi-port header ended with %v", err)
			}
		})
	}
}

// aligned tags an invocation's error with what the lane communicator's
// Collectives() reads on this thread once it has ended, so that comparing the
// threads' errors compares their place in the collective skeleton too: a thread
// that left the invocation a collective short of the others fails the next one.
func aligned(b *Binding, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w (the lane communicator at collective %d)", err, b.Comm().Collectives())
}

// TestBadStepInReplyDoesNotWedgeClient is the client's twin: a c-thread client
// invokes a hand-rolled server whose reply, its leg in the message, has one step
// of the three bad. Every thread returns the same error well inside the
// binding's timeout, and the next invocation on the binding succeeds.
func TestBadStepInReplyDoesNotWedgeClient(t *testing.T) {
	for _, c := range []int{2, 3} {
		testutil.CheckGoroutines(t, fmt.Sprint("c", c), func(t *testing.T) {
			defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
			srv, err := orb.NewServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var table []OpDesc
			for pos := 0; pos < 3; pos++ {
				for owner := range stepOwners {
					desc, _ := tripleOp(pos, owner, c)
					table = append(table, desc)
				}
			}
			key := []byte("spmd/hand-rolled")
			// The scalars say which step to spoil, and how: -1 spoils none.
			srv.Register(key, orb.ServantFunc(func(op string, in *cdr.Decoder, out *cdr.Encoder) error {
				if op == describeOp {
					encodeOpTable(out, table)
					return nil
				}
				h, err := freshHeader(in)
				if err != nil {
					return orb.Marshal(err)
				}
				sc, err := orb.ArgDecoder(h.Scalars)
				if err != nil {
					return orb.Marshal(err)
				}
				pos, _ := sc.ReadLong()
				kind, err := sc.ReadLong()
				if err != nil {
					return orb.Marshal(err)
				}
				var bad func(*cdr.Encoder, []float64) string
				ce := 0
				if kind >= 0 {
					bad = badSteps[kind].write
					if badSteps[kind].framed { // in the one size the client would take frames in
						ce = int(h.ResultChunkElems)
					}
				}
				var lengths []int
				encodeReplyPrefix(out, nil, ce, len(h.Args))
				for _, a := range h.Args {
					encodeReplyArg(out, a.Dir, a.Layout.Length)
					lengths = append(lengths, a.Layout.Length)
				}
				writeSteps(out, lengths, int(pos), bad)
				return nil
			}))
			ref := orb.IOR{TypeID: "IDL:triple:1.0", Key: key, Threads: 1, Endpoints: []orb.Endpoint{srv.Endpoint(0)}}

			w := rts.NewWorld(c)
			defer w.Close()
			var mu sync.Mutex
			outcomes := map[string][][]byte{} // per row, every thread's encoded outcome
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(comm *rts.Comm) error {
					b, err := SPMDBindRef(comm, ref, BindOptions{Timeout: 2 * time.Second})
					if err != nil {
						return err
					}
					defer b.Close()
					for pos := 0; pos < 3; pos++ {
						for owner := range stepOwners {
							desc, lengths := tripleOp(pos, owner, c)
							var args []DistArg
							for i, n := range lengths {
								seq, err := dseq.New(comm, dseq.Float64, n, desc.Args[i].Spec)
								if err != nil {
									return err
								}
								args = append(args, InOutSeq(seq))
							}
							invoke := func(kind int) (time.Duration, error) {
								scalars := ScalarEncoder()
								scalars.WriteLong(int32(pos))
								scalars.WriteLong(int32(kind))
								start := time.Now()
								_, err := b.Invoke(desc.Name, scalars.Bytes(), args)
								return time.Since(start), aligned(b, err)
							}
							for kind, bad := range badSteps {
								name := fmt.Sprintf("arg %d of %s: %s", pos, stepOwners[owner].name, bad.name)
								took, err := invoke(kind)
								if why := whyOf(bad.why, pos, owner); err == nil || !strings.Contains(err.Error(), why) || took > time.Second {
									return fmt.Errorf("%s: thread %d ended with %v after %v, want an error saying %q at once", name, comm.Rank(), err, took, why)
								}
								e := cdr.NewEncoder(cdr.NativeOrder)
								orb.EncodeOutcome(e, err)
								mu.Lock()
								outcomes[name] = append(outcomes[name], e.Bytes())
								mu.Unlock()
								if _, err := invoke(-1); err != nil {
									return fmt.Errorf("%s: thread %d: the next invocation ended with %v", name, comm.Rank(), err)
								}
								for i, a := range args {
									for _, v := range a.Seq.(*dseq.Seq[float64]).LocalData() {
										if v != float64(i+1) {
											return fmt.Errorf("%s: thread %d: the next invocation left %v in arg %d", name, comm.Rank(), v, i)
										}
									}
								}
							}
						}
					}
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(testTimeout):
				w.Close()
				t.Fatal("a client thread never came back from a reply with a bad step")
			}
			if len(outcomes) != 3*len(stepOwners)*len(badSteps) {
				t.Fatalf("%d rows ended, want %d", len(outcomes), 3*len(stepOwners)*len(badSteps))
			}
			for name, all := range outcomes {
				for _, o := range all {
					if len(all) != c || !bytes.Equal(o, all[0]) {
						t.Errorf("%s: %d threads ended, with\n  %q\nand\n  %q", name, len(all), all[0], o)
					}
				}
			}
		})
	}
}

// TestInMessageCallIsOneExchange pins what a small in-only call costs beside its
// collectives, at two client and two server threads: one Request read by the
// server, one Reply read by the client, and nothing else — no Data frame either
// way, no bucket on any computing thread, no sink on any client thread's lane,
// and no goroutine launched for the exchange while the upcall runs. That check
// reads the stacks of the goroutines the calling thread started, not the
// process's goroutine count, which the rest of the process moves.
func TestInMessageCallIsOneExchange(t *testing.T) {
	var served, received frameCount
	var tc *testCluster
	var mu sync.Mutex
	var upcalls, buckets int
	var caller string // under mu: client thread 0's goroutine, once the measured call is under way
	launched := false
	tc = startClusterOps(t, 2, false, func() []Operation {
		return shapeOps(func(call *ServerCall) {
			tc.objMu.Lock()
			obj := tc.objects[call.Comm.Rank()]
			tc.objMu.Unlock()
			obj.bucketMu.Lock()
			n := len(obj.buckets)
			obj.bucketMu.Unlock()
			mu.Lock()
			upcalls, buckets = upcalls+1, buckets+n
			launched = launched || caller != "" && strings.Contains(allStacks(), "(*invocation).launch in goroutine "+caller+"\n")
			mu.Unlock()
		})
	}, func(o *ExportOptions) { o.Server.Transport = &transport.Options{FrameHook: served.hook} })
	opts := BindOptions{Timeout: testTimeout, Transport: &transport.Options{FrameHook: received.hook}}
	tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
		arr, err := dseq.New(c, dseq.Float64, 64, nil)
		if err != nil {
			return err
		}
		put := func() error {
			_, err := b.Invoke("put", ScalarEncoder().Bytes(), []DistArg{InSeq(arr)})
			return err
		}
		// The first call brings up what stays: the adapter's worker.
		if err := put(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			served.take()
			received.take()
			mu.Lock()
			upcalls, buckets, caller = 0, 0, goroutineID()
			mu.Unlock()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := put(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if b.lane.sink.ch != nil {
			return fmt.Errorf("thread %d: an in-only call made its lane a sink", c.Rank())
		}
		if c.Rank() != 0 {
			return nil
		}
		if got, _ := received.take(); len(got) != 1 || got[wire.MsgReply] != 1 {
			return fmt.Errorf("the client read %v, want one Reply", got)
		}
		if got, _ := served.take(); len(got) != 1 || got[wire.MsgRequest] != 1 {
			return fmt.Errorf("the server read %v, want one Request", got)
		}
		mu.Lock()
		defer mu.Unlock()
		if upcalls != 2 || buckets != 0 {
			return fmt.Errorf("%d upcalls saw %d buckets, want 2 and none", upcalls, buckets)
		}
		if launched {
			return fmt.Errorf("the call launched its exchange on a goroutine of its own")
		}
		return nil
	})
}

// TestForeignOrderRequestReachesEveryThread: thread 0 relays the header to the
// other computing threads as the request carried it, byte-order octet
// included, so a request in the order a native client does not write — here
// big-endian, from a hand-rolled peer — is served on every thread alike.
func TestForeignOrderRequestReachesEveryThread(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]string{}
	tc := startClusterOps(t, 2, false, func() []Operation {
		return shapeOps(func(call *ServerCall) {
			arr := ArgSeq[float64](call, 0)
			mu.Lock()
			seen[call.Comm.Rank()] = fmt.Sprintf("%s %d %v", call.Op, arr.Len(), arr.LocalData())
			mu.Unlock()
		})
	})
	tc.objMu.Lock()
	ref := tc.objects[0].Ref()
	tc.objMu.Unlock()
	cli := orb.NewClient()
	cli.Timeout = testTimeout
	defer cli.Close()
	vals := []float64{1, 2, 3, 4, 5, 6}
	h := &invocationHeader{Op: "put", Token: 0x5eed, ClientRanks: 1, Scalars: ScalarEncoder().Bytes(),
		Args: []headerArg{{Dir: In, Elem: "double", Layout: mustLayout(t, len(vals), 1)}}}
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(byte(cdr.BigEndian))
	h.encode(e)
	writeStep(e, dseq.MarshalChunk(dseq.Float64, vals))
	if _, err := cli.Invoke(ref, "put", e.Bytes(), false); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := map[int]string{0: "put 6 [1 2 3]", 1: "put 6 [4 5 6]"}; !reflect.DeepEqual(seen, want) {
		t.Errorf("the upcalls saw %v, want %v", seen, want)
	}
}

// goroutineID is the calling goroutine's number, as stack traces print it.
func goroutineID() string {
	var buf [64]byte
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine "), " ")
	return id
}

// allStacks is every goroutine's stack trace.
func allStacks() string {
	for n := 1 << 16; ; n *= 2 {
		buf := make([]byte, n)
		if m := runtime.Stack(buf, true); m < n {
			return string(buf[:m])
		}
	}
}
