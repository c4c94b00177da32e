package rts

import "fmt"

// Status describes a received message.
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

// Context returns the communication context id (0 for the default context).
func (c *Comm) Context() int { return c.ctx }

// Collectives returns how many collective operations this rank has entered on
// the communicator — the sequence number the next one will carry. Every rank
// of a correct SPMD program reads the same value at the same point, which is
// what makes "collectives per invocation" a number a test can pin.
func (c *Comm) Collectives() int { return c.collSeq }

func (c *Comm) checkRank(r int) error {
	if r < 0 || r >= c.world.size {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrRank, r, c.world.size)
	}
	return nil
}

// Send delivers data to rank dst with the given tag. The data slice is
// handed off to the receiver without copying; the sender must not modify it
// afterwards. Tags must be >= 0; negative tags are reserved for collective
// operations.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if err := c.checkRank(dst); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("%w: %d", ErrTag, tag)
	}
	return c.send(dst, tag, data)
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

// recv is the internal entry point, also used with reserved negative tags by
// the collectives.
func (c *Comm) recv(src, tag int) ([]byte, Status, error) {
	m, err := c.world.mailboxes[c.rank].take(c.ctx, src, tag, c.world.opts.RecvTimeout)
	if err != nil {
		return nil, Status{}, err
	}
	return m.data, Status{Source: m.src, Tag: m.tag, Len: len(m.data)}, nil
}

// Dup collectively creates a new communicator over the same ranks with an
// isolated communication context. All ranks must call Dup together (it
// synchronizes like a barrier). The returned communicators deliver messages
// only among themselves, so independent protocol layers cannot intercept
// each other's traffic. This is what lets PARDIS futures overlap: every
// binding, and every exported object, runs its invocations on a duplicated
// context of its own.
func (c *Comm) Dup() (*Comm, error) {
	var id int
	if c.rank == 0 {
		id = c.world.allocCtx()
	}
	idBuf, err := c.Bcast(0, encodeInt(id))
	if err != nil {
		return nil, err
	}
	return &Comm{world: c.world, rank: c.rank, ctx: decodeInt(idBuf)}, nil
}
