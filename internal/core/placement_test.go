package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dseq"
	"repro/internal/rts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// frameCount tallies the frames one side of a cluster reads, by message type,
// and the largest Reply body among them.
type frameCount struct {
	mu       sync.Mutex
	byType   map[wire.MsgType]int
	maxReply uint32
}

func (fc *frameCount) hook(h wire.Header) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.byType == nil {
		fc.byType = map[wire.MsgType]int{}
	}
	fc.byType[h.Type]++
	if h.Type == wire.MsgReply {
		fc.maxReply = max(fc.maxReply, h.Size)
	}
}

func (fc *frameCount) take() (byType map[wire.MsgType]int, maxReply uint32) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	byType, maxReply = fc.byType, fc.maxReply
	fc.byType, fc.maxReply = nil, 0
	return byType, maxReply
}

// TestReplyLegChunkSchedule pins what an out-only call of the paper's argument
// puts on the wire at two client and two server threads: the request leg is
// inline and the reply leg starts from the chunk size the request announced,
// not from a size recomputed out of nothing — 64 reply chunks at the default
// chunk size, 128 at StreamChunkElems 4096 — ahead of a Reply that carries
// lengths only, all on the connection the Request travelled on, and the server
// reads no Data frame at all: no forward chunk and no attach message.
func TestReplyLegChunkSchedule(t *testing.T) {
	const elems = 1 << 19
	for _, tt := range []struct{ chunkElems, frames int }{{0, 64}, {4096, 128}} {
		t.Run(fmt.Sprint(tt.chunkElems), func(t *testing.T) {
			var served, received frameCount
			tc := startCluster(t, 2, false, nil, func(o *ExportOptions) {
				o.Server.Transport = &transport.Options{FrameHook: served.hook}
			})
			opts := BindOptions{Timeout: testTimeout, StreamChunkElems: tt.chunkElems, Transport: &transport.Options{FrameHook: received.hook}}
			tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
				out, err := dseq.New(c, dseq.Float64, 0, nil)
				if err != nil {
					return err
				}
				n := ScalarEncoder()
				n.WriteLong(elems)
				// The bind's describe exchange is not part of the call.
				if err := c.Barrier(); err != nil {
					return err
				}
				served.take()
				received.take()
				if err := c.Barrier(); err != nil {
					return err
				}
				if _, err := b.Invoke("iota", n.Bytes(), []DistArg{OutSeq(out)}); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if out.Len() != elems {
					return fmt.Errorf("result holds %d elements, want %d", out.Len(), elems)
				}
				for i, v := range out.LocalData() {
					if want := float64(c.Rank()*elems/2+i) + 0.5; v != want {
						return fmt.Errorf("thread %d: element %d is %v, want %v", c.Rank(), i, v, want)
					}
				}
				if c.Rank() != 0 {
					return nil
				}
				got, reply := received.take()
				if got[wire.MsgData] != tt.frames || got[wire.MsgReply] != 1 {
					return fmt.Errorf("the client read %v, want %d Data frames and one Reply", got, tt.frames)
				}
				if reply > 128 {
					return fmt.Errorf("the Reply body is %d bytes: more than scalars and lengths", reply)
				}
				if sent, _ := served.take(); sent[wire.MsgData] != 0 || sent[wire.MsgRequest] != 1 {
					return fmt.Errorf("the server read %v, want one Request and no Data frame", sent)
				}
				if conns := b.client.NumConns(); conns != 1 {
					return fmt.Errorf("thread 0 holds %d connections, want the request's alone", conns)
				}
				return nil
			})
		})
	}
}

// TestResultLengthDecidesPlacement: the server places the reply leg from the
// length the handler chose, call by call — an empty result, one of a single
// chunk, of exactly two, of the paper's size — and whichever way it travelled
// every thread ends with exactly that length and those contents. An operation
// with a small in and a large out argument sends the first inline and takes the
// second streamed.
func TestResultLengthDecidesPlacement(t *testing.T) {
	const chunk = 256
	var received frameCount
	tc := startClusterOps(t, 2, false, func() []Operation { return shapeOps(func(*ServerCall) {}) })
	opts := BindOptions{Timeout: testTimeout, StreamChunkElems: chunk, Transport: &transport.Options{FrameHook: received.hook}}
	tc.runClientOpts(t, 2, opts, func(c *rts.Comm, b *Binding) error {
		out, err := dseq.New(c, dseq.Float64, 0, nil)
		if err != nil {
			return err
		}
		seed, err := dseq.New(c, dseq.Float64, 64, nil)
		if err != nil {
			return err
		}
		// maxStreamChunks chunks of 256 hold 2^18 elements: the paper's 2^19
		// double the chunk size once.
		for _, tt := range []struct {
			op            string
			elems, frames int
		}{
			{"get", 0, 0}, {"get", chunk, 0}, {"get", 2*chunk - 1, 0}, {"get", 2 * chunk, 2},
			{"get", 1 << 19, 1024}, {"get", 3, 0}, {"fill", 5 * chunk, 5}, {"get", 1 << 19, 1024},
		} {
			n := ScalarEncoder()
			n.WriteLong(int32(tt.elems))
			args := []DistArg{OutSeq(out)}
			if tt.op == "fill" {
				args = []DistArg{InSeq(seed), OutSeq(out)}
			}
			// Thread 0 reads the tally between barriers that keep the next call's
			// frames out of it.
			if err := c.Barrier(); err != nil {
				return err
			}
			if _, err := b.Invoke(tt.op, n.Bytes(), args); err != nil {
				return fmt.Errorf("%s of %d: %w", tt.op, tt.elems, err)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			// Block over two threads: the first gets the odd element.
			first, count := 0, (tt.elems+1)/2
			if c.Rank() == 1 {
				first, count = count, tt.elems/2
			}
			if out.Len() != tt.elems || len(out.LocalData()) != count {
				return fmt.Errorf("%s of %d: thread %d holds %d of %d elements", tt.op, tt.elems, c.Rank(), len(out.LocalData()), out.Len())
			}
			for i, v := range out.LocalData() {
				if want := float64(first+i) + 0.5; v != want {
					return fmt.Errorf("%s of %d: thread %d element %d is %v, want %v", tt.op, tt.elems, c.Rank(), i, v, want)
				}
			}
			if c.Rank() != 0 {
				continue
			}
			if got, _ := received.take(); got[wire.MsgData] != tt.frames {
				return fmt.Errorf("%s of %d: the client read %d Data frames, want %d", tt.op, tt.elems, got[wire.MsgData], tt.frames)
			}
		}
		return nil
	})
}
