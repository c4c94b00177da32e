package rts

import (
	"fmt"
	"time"
)

// Status describes a matched message, as returned by Probe.
type Status struct {
	Source int
	Tag    int
	Len    int
}

// Comm is one rank's handle on a communication context within a World.
// All methods are safe for use only by the owning rank's goroutine, except
// where noted; distinct Comms (even of the same rank, from Dup) are
// independent.
type Comm struct {
	world *World
	rank  int
	ctx   int

	// collSeq numbers collective operations within this (rank, ctx) so that
	// back-to-back collectives cannot confuse each other's traffic. Every
	// rank calls collectives in the same order (SPMD requirement), so the
	// sequence numbers agree without communication.
	collSeq int
	// gathered is the result Gather returns at the root, one slot per rank.
	gathered [][]byte
}

// Rank returns this communicator's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// World returns the underlying world.
func (c *Comm) World() *World { return c.world }

// Context returns the communication context id (0 for the default context).
func (c *Comm) Context() int { return c.ctx }

// Collectives returns how many collective operations this rank has entered on
// the communicator — the sequence number the next one will carry. Every rank
// of a correct SPMD program reads the same value at the same point, which is
// what makes "collectives per invocation" a number a test can pin.
func (c *Comm) Collectives() int { return c.collSeq }

// Epoch returns the membership epoch of the communicator's world. All
// collectives on this communicator belong to that epoch: a Successor world's
// mailboxes are disjoint from its predecessor's, so traffic cannot cross an
// epoch boundary.
func (c *Comm) Epoch() int { return c.world.opts.Epoch }

func (c *Comm) checkRank(r int) error {
	if r < 0 || r >= c.world.size {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrRank, r, c.world.size)
	}
	return nil
}

// Send delivers data to rank dst with the given tag. The data slice is
// handed off to the receiver without copying; the sender must not modify it
// afterwards (use SendCopy when reusing buffers). Tags must be >= 0;
// negative tags are reserved for collective operations.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if err := c.checkRank(dst); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("%w: %d", ErrTag, tag)
	}
	return c.send(dst, tag, data)
}

// SendCopy is Send, but copies data first so the caller may reuse the
// buffer immediately.
func (c *Comm) SendCopy(dst, tag int, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	return c.Send(dst, tag, cp)
}

// send is the internal entry point, also used with reserved negative tags by
// the collectives.
func (c *Comm) send(dst, tag int, data []byte) error {
	return c.world.mailboxes[dst].put(message{ctx: c.ctx, src: c.rank, tag: tag, data: data})
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload and status. Use AnySource and/or AnyTag as wildcards. If the world
// was built with Options.RecvTimeout, Recv fails with ErrTimeout after that
// duration.
func (c *Comm) Recv(src, tag int) ([]byte, Status, error) {
	if src != AnySource {
		if err := c.checkRank(src); err != nil {
			return nil, Status{}, err
		}
	}
	if tag < 0 && tag != AnyTag {
		return nil, Status{}, fmt.Errorf("%w: %d", ErrTag, tag)
	}
	return c.recv(src, tag)
}

// RecvTimeout is Recv with an explicit deadline overriding the world option.
func (c *Comm) RecvTimeout(src, tag int, d time.Duration) ([]byte, Status, error) {
	m, err := c.world.mailboxes[c.rank].takeTimeout(c.ctx, src, tag, d)
	if err != nil {
		return nil, Status{}, err
	}
	return m.data, Status{Source: m.src, Tag: m.tag, Len: len(m.data)}, nil
}

func (c *Comm) recv(src, tag int) ([]byte, Status, error) {
	m, err := c.world.mailboxes[c.rank].takeTimeout(c.ctx, src, tag, c.world.opts.RecvTimeout)
	if err != nil {
		return nil, Status{}, err
	}
	return m.data, Status{Source: m.src, Tag: m.tag, Len: len(m.data)}, nil
}

// Probe reports whether a message matching (src, tag) is available without
// receiving it. It never blocks.
func (c *Comm) Probe(src, tag int) (Status, bool) {
	return c.world.mailboxes[c.rank].probe(c.ctx, src, tag)
}

// SendRecv performs a combined send to dst and receive from src, as needed
// by pairwise exchange patterns. The send is buffered by the mailbox, so no
// deadlock can occur even when both peers SendRecv each other.
func (c *Comm) SendRecv(dst, sendTag int, data []byte, src, recvTag int) ([]byte, Status, error) {
	if err := c.Send(dst, sendTag, data); err != nil {
		return nil, Status{}, err
	}
	return c.Recv(src, recvTag)
}

// Dup collectively creates a new communicator over the same ranks with an
// isolated communication context. All ranks must call Dup together (it
// synchronizes like a barrier). The returned communicators deliver messages
// only among themselves, so independent protocol layers cannot intercept
// each other's traffic. This is what allows PARDIS futures: every
// non-blocking invocation stream runs on a duplicated context.
func (c *Comm) Dup() (*Comm, error) {
	var id int
	if c.rank == 0 {
		id = c.world.allocCtx()
	}
	idBuf, err := c.bcastRoot0(encodeInt(id))
	if err != nil {
		return nil, err
	}
	return &Comm{world: c.world, rank: c.rank, ctx: decodeInt(idBuf)}, nil
}

// Dups collectively creates n independent communicators at once: rank 0
// allocates all n context ids and a single broadcast agrees on them, so the
// round costs one collective instead of n back-to-back Dups. The pipelined
// invocation engine uses it to set up its lanes — one duplicated context per
// concurrently outstanding invocation.
func (c *Comm) Dups(n int) ([]*Comm, error) {
	if n < 0 {
		return nil, fmt.Errorf("rts: Dups(%d)", n)
	}
	ids := make([]int64, n)
	if c.rank == 0 {
		for i := range ids {
			ids[i] = int64(c.world.allocCtx())
		}
	}
	buf, err := c.bcastRoot0(Int64sToBytes(ids))
	if err != nil {
		return nil, err
	}
	got, err := BytesToInt64s(buf)
	if err != nil {
		return nil, err
	}
	if len(got) != n {
		return nil, fmt.Errorf("rts: Dups(%d) agreed on %d contexts", n, len(got))
	}
	out := make([]*Comm, n)
	for i := range out {
		out[i] = &Comm{world: c.world, rank: c.rank, ctx: int(got[i])}
	}
	return out, nil
}

// bcastRoot0 broadcasts data from rank 0 inside Dup, before the new context
// exists; it reuses the collective machinery of the current context.
func (c *Comm) bcastRoot0(data []byte) ([]byte, error) {
	return c.Bcast(0, data)
}
