package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/dseq"
	"repro/internal/orb"
	"repro/internal/rts"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// framesOps is keptOps and two operations more: "refuse", whose handler raises
// a user exception carrying the octets its scalars hold, and "wide", whose
// reply carries n octets, octet i holding byte(i + n): a reply header larger
// than the lane's slab, and a reply larger than the storage it keeps.
func framesOps() []Operation {
	none := func(*rts.Comm) ([]dseq.Transferable, error) { return nil, nil }
	return append(keptOps(nil),
		Operation{Desc: OpDesc{Name: "refuse"}, NewArgs: none, Handler: func(call *ServerCall) error {
			p, err := call.In.ReadOctets()
			if err != nil {
				return err
			}
			return &orb.UserException{RepoID: "IDL:test/Refused:1.0", Message: "as asked", Payload: bytes.Clone(p)}
		}},
		Operation{Desc: OpDesc{Name: "wide"}, NewArgs: none, Handler: func(call *ServerCall) error {
			n, err := call.In.ReadLong()
			if err != nil {
				return err
			}
			call.Out.WriteOctets(wideOctets(int(n)))
			return nil
		}})
}

func wideOctets(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i + n)
	}
	return p
}

// TestPoisonedFrames runs, with every frame filled with a marker as it goes
// back to the pool, the calls whose received messages have readers after the
// first: the collective loop reads a request's steps and scalars after the
// adapter has handed it on, thread 0's back leg reads the reply's steps, and a
// caller reads its scalars, its future's and its exception's payload after the
// binding's next call. A frame given back while any of them still reads it
// hands that reader the marker instead of its call's bytes. The calls: small
// in-message calls, inout and out legs placed in the message, a user exception,
// a future, a reply wider than the lane's slab and the storage it keeps, which
// the lane then lets go, and two bindings overlapping; every frame goes back.
func TestPoisonedFrames(t *testing.T) {
	bufpool.Frames.OnReturn = func(b []byte) {
		for i := range b {
			b[i] = 0xa5
		}
	}
	defer func() { bufpool.Frames.OnReturn = nil }()
	t.Run("in the message", func(t *testing.T) {
		defer testutil.BalanceCheck(t, "frame pool", transport.PoolOutstanding)()
		tc := startClusterOps(t, 2, false, framesOps)
		tc.runClientOpts(t, 2, BindOptions{Timeout: testTimeout}, func(c *rts.Comm, b *Binding) error {
			if err := keptCalls(c, b, 0, 9, 0); err != nil { // "in", "mix" and "echo", three times
				return err
			}
			want := []byte("refused, and says why")
			e := ScalarEncoder()
			e.WriteOctets(want)
			_, refused := b.Invoke("refuse", e.Bytes(), nil)
			p, err := startKept(c, b, 10) // a "mix", waited on after the next calls
			if err != nil {
				return err
			}
			<-p.f.Done()
			if err := keptCalls(c, b, 11, 3, 0); err != nil {
				return err
			}
			var ue *orb.UserException
			if !errors.As(refused, &ue) || !bytes.Equal(ue.Payload, want) {
				return fmt.Errorf("after the next calls the refusal is %v, payload %q; want %q", refused, ue.Payload, want)
			}
			if err := p.settle(); err != nil {
				return err
			}
			scalars, _ := p.f.Wait()
			all, err := c.Gather(0, scalars)
			if err != nil {
				return err
			}
			for r, s := range all {
				if !bytes.Equal(s, all[0]) {
					return fmt.Errorf("the future's scalars differ on thread %d: %x, thread 0 %x", r, s, all[0])
				}
			}
			const n = keptReplyBytes + 1000
			e = ScalarEncoder()
			e.WriteLong(n)
			reply, err := b.Invoke("wide", e.Bytes(), nil)
			if err != nil {
				return err
			}
			if err := keptCalls(c, b, 14, 1, 0); err != nil {
				return err
			}
			if got := cap(b.lane.reply); got > keptReplyBytes {
				return fmt.Errorf("thread %d's lane keeps %d bytes of reply storage, more than %d", c.Rank(), got, keptReplyBytes)
			}
			d, err := ScalarDecoder(reply)
			if err != nil {
				return err
			}
			if got, err := d.ReadOctets(); err != nil || !bytes.Equal(got, wideOctets(n)) {
				return fmt.Errorf("a %d-octet reply after the next call: %d octets (%v), not the ones sent", n, len(got), err)
			}
			return nil
		})
	})
	t.Run("two bindings", twoBindingsOverlap)
}
