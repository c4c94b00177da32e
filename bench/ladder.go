package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/zcodec"
)

// The ladder runs each layer alone, from this directory, through the
// layer's public functions, with the shapes one invocation of the workload
// gives them: a streamed workload hands the payload layers one chunk of
// core.DefaultStreamChunkElems elements at a time, any other the whole
// argument. Rungs whose shape the issue fixes (64 KiB transport frames,
// the 4 MiB orb reply, the smallest messages) ignore the workload.

const (
	frameBytes = 64 << 10       // transport.data_MBps frame payload
	replyBytes = paperElems * 8 // orb.bulk_reply_MBps reply payload
)

// rungStat is what one rung measured.
type rungStat struct {
	ns     float64 // wall time per call
	allocs float64 // heap allocations per call
}

func (s rungStat) us() float64 { return s.ns / 1e3 }

// mbps is the rate at which calls of the rung move n bytes each.
func (s rungStat) mbps(n int) float64 { return float64(n) / s.ns * 1e3 }

// ladderRun is one pass over the ladder for one workload.
type ladderRun struct {
	w      workload
	data   ramp
	vals   []float64     // the first shape elements of the argument
	zshape int           // elements the block codec sees per call
	d      time.Duration // how long each rung runs
	rec    *recorder
	m      map[string]float64 // per-layer metric name → value
}

// rung calls op back to back on this goroutine for at least l.d and records
// the whole rung as one span whose Ops is the number of calls.
func (l *ladderRun) rung(name string, op func() error) (rungStat, error) {
	rec, d := l.rec, l.d
	if err := op(); err != nil {
		return rungStat{}, fmt.Errorf("%s: %w", name, err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, ops := rec.now(), 0
	// The clock is read once per batch, and a batch grows until it lasts a
	// millisecond, so reading it costs the shortest ops nothing measurable.
	for batch := 1; rec.now()-start < int64(d); {
		t := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return rungStat{}, fmt.Errorf("%s: %w", name, err)
			}
		}
		ops += batch
		if time.Since(t) < time.Millisecond {
			batch *= 2
		}
	}
	end := rec.now()
	runtime.ReadMemStats(&m1)
	rec.add(span{Trace: -1, Name: name, Start: start, End: end, Ops: ops})
	return rungStat{ns: float64(end-start) / float64(ops), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(ops)}, nil
}

// collectiveRung times a collective op on a fresh world of clientRanks
// threads: every rank gets its own op from body, the loop count is
// calibrated as the workloads' is, and rank 0 takes the measurement between
// two barriers. The root the op is given moves round the ranks from call to
// call. A rooted collective does not make its senders wait, so with a fixed
// root the other ranks would run ahead and flood its mailbox; with a moving
// one every call waits for the call before it, which is how the ranks of an
// invocation move: in lock-step.
func (l *ladderRun) collectiveRung(name string, body func(c *rts.Comm) (func(root int) error, error)) (rungStat, error) {
	rec, d := l.rec, l.d
	w := rts.NewWorld(clientRanks, rts.Options{RecvTimeout: callTimeout})
	defer w.Close()
	var st rungStat
	err := w.Run(func(c *rts.Comm) error {
		rooted, err := body(c)
		if err != nil {
			return err
		}
		calls := 0
		op := func() error {
			calls++
			return rooted(calls % c.Size())
		}
		n, _, err := calibrate(c, d/4, d, op)
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		start := rec.now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			end := rec.now()
			runtime.ReadMemStats(&m1)
			rec.add(span{Trace: -1, Name: name, Start: start, End: end, Ops: n})
			st = rungStat{ns: float64(end-start) / float64(n), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n)}
		}
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("%s: %w", name, err)
	}
	return st, nil
}

// ladder measures every per-layer metric that comes from a layer run alone
// and returns them by name.
func ladder(w workload, data ramp, d time.Duration, rec *recorder) (map[string]float64, error) {
	shape := w.elems // elements the payload layers see per call
	if w.streamed() {
		shape = core.DefaultStreamChunkElems
	}
	l := &ladderRun{w: w, data: data, vals: make([]float64, shape), d: d, rec: rec, m: map[string]float64{}}
	l.zshape = min(shape, core.DefaultStreamChunkElems) // the codec only ever sees chunks
	for g := range l.vals {
		l.vals[g] = data.at(g)
	}
	for _, layer := range []func() error{l.codecs, l.rts, l.dseq, l.wire, l.transport, l.orb} {
		if err := layer(); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}

// codecs is the cdr, zcodec and dist rungs: pure functions of their
// input, one goroutine.
func (l *ladderRun) codecs() error {
	w, vals, zshape, m := l.w, l.vals, l.zshape, l.m
	enc := cdr.NewEncoder(cdr.NativeOrder)
	e, err := l.rung("cdr.encode", func() error {
		enc.Reset()
		enc.WriteDoubles(vals)
		return nil
	})
	if err != nil {
		return err
	}
	dst := make([]float64, len(vals))
	dec, err := l.rung("cdr.decode", func() error {
		_, err := cdr.NewDecoder(enc.Bytes(), cdr.NativeOrder).ReadDoublesInto(dst)
		return err
	})
	if err != nil {
		return err
	}
	m["cdr.encode_MBps"], m["cdr.decode_MBps"] = e.mbps(8*len(vals)), dec.mbps(8*len(vals))
	m["cdr.allocs_per_op"] = e.allocs + dec.allocs

	var block []byte
	ze, err := l.rung("zcodec.encode", func() error {
		block = zcodec.AppendDoubles(block[:0], vals[:zshape])
		return nil
	})
	if err != nil {
		return err
	}
	zd, err := l.rung("zcodec.decode", func() error {
		return zcodec.DecodeDoublesInto(dst[:zshape], block)
	})
	if err != nil {
		return err
	}
	m["zcodec.encode_MBps"], m["zcodec.decode_MBps"] = ze.mbps(8*zshape), zd.mbps(8*zshape)
	m["zcodec.ratio"] = float64(8*zshape) / float64(len(block))

	src, err := dist.Block{}.Layout(w.elems, clientRanks)
	if err != nil {
		return err
	}
	to, err := dist.Block{}.Layout(w.elems, serverRanks)
	if err != nil {
		return err
	}
	p, err := l.rung("dist.plan", func() error {
		_, err := dist.Plan(src, to)
		return err
	})
	m["dist.plan_us"], m["dist.plan_allocs"] = p.us(), p.allocs
	return err
}

// rts is the collectives the invocation skeleton is made of.
func (l *ladderRun) rts() error {
	vals, m := l.vals, l.m
	bcast, err := l.collectiveRung("rts.bcast1", func(c *rts.Comm) (func(int) error, error) {
		one := []byte{1}
		return func(root int) error { _, err := c.Bcast(root, one); return err }, nil
	})
	if err != nil {
		return err
	}
	gather, err := l.collectiveRung("rts.gather_chunk", func(c *rts.Comm) (func(int) error, error) {
		part := make([]byte, 8*len(vals)/clientRanks)
		return func(root int) error { _, err := c.Gather(root, part); return err }, nil
	})
	if err != nil {
		return err
	}
	barrier, err := l.collectiveRung("rts.barrier", func(c *rts.Comm) (func(int) error, error) {
		return func(int) error { return c.Barrier() }, nil
	})
	m["rts.bcast1_us"], m["rts.gather_chunk_us"], m["rts.barrier_us"] = bcast.us(), gather.us(), barrier.us()
	m["rts.allocs_per_coll"] = (bcast.allocs + gather.allocs + barrier.allocs) / 3
	return err
}

// dseq is collective and per-rank (un)marshalling of one shape-sized
// piece of the workload's sequence, walking the sequence piece by piece.
func (l *ladderRun) dseq() error {
	w, data, zshape, m := l.w, l.data, l.zshape, l.m
	shape := len(l.vals)
	// walk returns, call after call, the start of the next n-element piece.
	walk := func(n int) func() int {
		next := 0
		return func() int {
			start := next
			if next += n; next+n > w.elems {
				next = 0
			}
			return start
		}
	}
	newSeq := func(c *rts.Comm) (*dseq.Seq[float64], error) {
		s, err := dseq.New(c, dseq.Float64, w.elems, nil)
		if err == nil {
			s.FillFunc(data.at)
		}
		return s, err
	}
	gatherRung := func(name string, n int, mask uint8) (rungStat, error) {
		return l.collectiveRung(name, func(c *rts.Comm) (func(int) error, error) {
			s, err := newSeq(c)
			start := walk(n)
			return func(root int) error { _, err := s.GatherMarshalRangeZ(c, root, start(), n, mask); return err }, err
		})
	}
	gather, err := gatherRung("dseq.gather_marshal", shape, 0)
	if err != nil {
		return err
	}
	gatherZ, err := gatherRung("dseq.gather_marshal_z", zshape, zcodec.Supported)
	if err != nil {
		return err
	}
	scatter, err := l.collectiveRung("dseq.scatter_unmarshal", func(c *rts.Comm) (func(int) error, error) {
		s, err := newSeq(c)
		if err != nil {
			return nil, err
		}
		// Every piece of the ramp differs, so scatter the one piece that was
		// gathered back to where it came from. Every rank takes a turn as
		// root, so every rank needs the payload.
		var payload []byte
		for root := 0; root < c.Size(); root++ {
			p, err := s.GatherMarshalRange(c, root, 0, shape)
			if err != nil {
				return nil, err
			}
			if root == c.Rank() {
				payload = p
			}
		}
		return func(root int) error { return s.ScatterUnmarshalRange(c, root, 0, shape, payload) }, nil
	})
	if err != nil {
		return err
	}
	m["dseq.gather_marshal_MBps"], m["dseq.gather_marshal_z_MBps"] = gather.mbps(8*shape), gatherZ.mbps(8*zshape)
	m["dseq.scatter_unmarshal_MBps"] = scatter.mbps(8 * shape)
	m["dseq.allocs_per_chunk"] = gather.allocs + scatter.allocs

	// The multi-port path marshals each rank's own share with no collective.
	one := rts.NewWorld(1)
	defer one.Close()
	s, err := newSeq(one.Comm(0))
	if err != nil {
		return err
	}
	share := max(shape/clientRanks, 1)
	start := walk(share)
	marshal, err := l.rung("dseq.marshal_range", func() error {
		_, err := s.MarshalRange(start(), share)
		return err
	})
	if err != nil {
		return err
	}
	payload, err := s.MarshalRange(0, share)
	if err != nil {
		return err
	}
	unmarshal, err := l.rung("dseq.unmarshal_range", func() error { return s.UnmarshalRange(0, payload) })
	m["dseq.marshal_range_MBps"], m["dseq.unmarshal_range_MBps"] = marshal.mbps(8*share), unmarshal.mbps(8*share)
	return err
}

// wire is the header codec on the smallest invocation's messages.
func (l *ladderRun) wire() error {
	m := l.m
	req := &wire.Request{RequestID: 7, ResponseExpected: true, ObjectKey: []byte("spmd/bench/xfer"),
		Operation: "xfer", Principal: "spmd-client/0", Args: make([]byte, 64)}
	enc := cdr.NewEncoder(cdr.NativeOrder)
	encode, err := l.rung("wire.encode_request", func() error {
		enc.Reset()
		wire.EncodeInto(enc, req)
		return nil
	})
	if err != nil {
		return err
	}
	body := wire.Encode(req, cdr.NativeOrder)[wire.HeaderLen:]
	decode, err := l.rung("wire.decode_request", func() error {
		_, err := wire.DecodeBody(wire.MsgRequest, body, cdr.NativeOrder)
		return err
	})
	if err != nil {
		return err
	}
	// A Data frame is framed as the transport does it: header and body
	// prefix are encoded, the payload is handed to the socket as it is.
	frame := &wire.Data{RequestID: 7, Count: frameBytes / 8, Flags: wire.DataFlagChunk, Payload: make([]byte, frameBytes)}
	encData, err := l.rung("wire.encode_data", func() error {
		enc.Reset()
		frame.EncodeBodyPrefix(enc)
		_ = wire.EncodeHeader(wire.MsgData, cdr.NativeOrder, false, enc.Len()+len(frame.Payload))
		return nil
	})
	m["wire.encode_request_ns"], m["wire.decode_request_ns"], m["wire.encode_data_ns"] = encode.ns, decode.ns, encData.ns
	return err
}

// transport is one framed loopback TCP connection: bulk frames one
// way, and the smallest message there and back.
func (l *ladderRun) transport() error {
	m := l.m
	lis, err := transport.Listen("127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer lis.Close()
	accepted := make(chan *transport.Conn, 1)
	go func() {
		c, _ := lis.Accept()
		accepted <- c
	}()
	cl, err := transport.Dial(lis.Addr(), nil)
	if err != nil {
		return err
	}
	sv := <-accepted
	if sv == nil {
		cl.Close()
		return errors.New("transport rung: accept failed")
	}
	// The far end answers each Ping with a Pong and swallows (releasing)
	// every Data frame, telling the near end when one has been consumed.
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for {
			msg, err := sv.ReadMessage()
			if err != nil {
				return
			}
			switch v := msg.(type) {
			case *wire.Ping:
				err = sv.WriteMessage(&wire.Pong{Nonce: v.Nonce})
			case *wire.Data:
				v.Release()
				consumed <- struct{}{}
			}
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		cl.Close()
		sv.Close()
		for range consumed { // until the far end has gone
		}
	}()

	frame := &wire.Data{RequestID: 1, Count: frameBytes / 8, Payload: make([]byte, frameBytes)}
	bulk, err := l.rung("transport.data", func() error {
		if err := cl.WriteMessage(frame); err != nil {
			return err
		}
		if _, ok := <-consumed; !ok {
			return errors.New("far end stopped reading")
		}
		return nil
	})
	if err != nil {
		return err
	}
	ping := &wire.Ping{Nonce: 1}
	rtt, err := l.rung("transport.rtt", func() error {
		if err := cl.WriteMessage(ping); err != nil {
			return err
		}
		_, err := cl.ReadMessage()
		return err
	})
	m["transport.data_MBps"], m["transport.rtt_us"], m["transport.allocs_per_msg"] = bulk.mbps(frameBytes), rtt.us(), bulk.allocs
	return err
}

// orb is a conventional request/reply through the object adapter,
// empty and with the paper's payload in the reply, plus a naming lookup.
func (l *ladderRun) orb() error {
	m := l.m
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	blob := make([]byte, replyBytes)
	key := []byte("bench/ladder")
	srv.Register(key, orb.ServantFunc(func(op string, _ *cdr.Decoder, out *cdr.Encoder) error {
		if op == "bulk" {
			out.WriteOctets(blob)
		}
		return nil
	}))
	ref := orb.IOR{TypeID: "IDL:pardis/bench/ladder:1.0", Key: key, Threads: 1, Endpoints: []orb.Endpoint{srv.Endpoint(0)}}
	cl := orb.NewClient()
	cl.Timeout = callTimeout
	defer cl.Close()
	noArgs := orb.NewArgEncoder().Bytes()
	null, err := l.rung("orb.null_rtt", func() error {
		_, err := cl.Invoke(ref, "null", noArgs, false)
		return err
	})
	if err != nil {
		return err
	}
	bulk, err := l.rung("orb.bulk_reply", func() error {
		reply, err := cl.Invoke(ref, "bulk", noArgs, false)
		if err == nil && len(reply) < replyBytes {
			err = fmt.Errorf("reply of %d bytes, want at least %d", len(reply), replyBytes)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["orb.null_rtt_us"], m["orb.bulk_reply_MBps"], m["orb.allocs_per_call"] = null.us(), bulk.mbps(replyBytes), null.allocs
	m["orb.shed_total"] = float64(srv.Stats().Shed)

	ns, err := naming.NewServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ns.Close()
	res := naming.NewResolver(cl, ns.Addr())
	if err := res.Bind("ladder", ref, true); err != nil {
		return err
	}
	resolve, err := l.rung("naming.resolve", func() error {
		_, err := res.Resolve("ladder", "")
		return err
	})
	m["naming.resolve_us"] = resolve.us()
	return err
}
