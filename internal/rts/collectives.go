package rts

import (
	"encoding/binary"
	"fmt"
)

// Collective opcodes, encoded into reserved (negative) tags.
const (
	opBarrier = iota
	opBcast
	opGather
	opScatter
	opReduce
	opAlltoall
	opScan
	opFence
	opForward
	numOps
)

// collTag maps (opcode, per-communicator sequence number) to a reserved tag.
// Tags < 0 never collide with application tags, and the sequence number
// separates back-to-back collectives of the same kind.
func collTag(op, seq int) int {
	return -(seq*numOps + op + 2)
}

func (c *Comm) nextSeq() int {
	s := c.collSeq
	c.collSeq++
	return s
}

// Barrier blocks until all ranks of the communicator have entered it.
func (c *Comm) Barrier() error {
	h := barrierNS.Load()
	defer h.Done(h.Start())
	tag := collTag(opBarrier, c.nextSeq())
	if c.world.size == 1 {
		return nil
	}
	if c.rank == 0 {
		for i := 1; i < c.world.size; i++ {
			if _, _, err := c.recvColl(AnySource, tag); err != nil {
				return err
			}
		}
		for i := 1; i < c.world.size; i++ {
			if err := c.send(i, tag, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.send(0, tag, nil); err != nil {
		return err
	}
	_, _, err := c.recvColl(0, tag)
	return err
}

// recvColl is the collective-internal receive (reserved tags allowed).
func (c *Comm) recvColl(src, tag int) ([]byte, Status, error) {
	m, err := c.world.mailboxes[c.rank].takeTimeout(c.ctx, src, tag, c.world.opts.RecvTimeout)
	if err != nil {
		return nil, Status{}, err
	}
	return m.data, Status{Source: m.src, Tag: m.tag, Len: len(m.data)}, nil
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns it. Non-root ranks pass data=nil (any value they pass is ignored).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	h := bcastNS.Load()
	defer h.Done(h.Start())
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	tag := collTag(opBcast, c.nextSeq())
	n := c.world.size
	if n == 1 {
		return data, nil
	}
	// Rotate so the root is virtual rank 0.
	vrank := (c.rank - root + n) % n
	if vrank != 0 {
		// Receive from parent: clear the lowest set bit of vrank.
		parent := (vrank&(vrank-1) + root) % n
		var err error
		data, _, err = c.recvColl(parent, tag)
		if err != nil {
			return nil, err
		}
	}
	// Forward to children: set each zero bit below the lowest set bit.
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			break
		}
		child := vrank | mask
		if child < n {
			if err := c.send((child+root)%n, tag, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Gather collects each rank's data at root. At root the result has one entry
// per rank (result[r] is rank r's contribution, in particular root's own
// data appears at result[root]); at other ranks the result is nil. Variable
// per-rank sizes are allowed (this doubles as MPI's Gatherv). The root's
// result is the communicator's own slice, like MPI's receive buffer: it is
// valid until this rank's next collective on the communicator, which may
// overwrite it, so a caller consumes it before then or copies it. The
// contributions it points to are the senders' and stay valid.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	tag := collTag(opGather, c.nextSeq())
	if c.rank == root && c.gathered == nil {
		c.gathered = make([][]byte, c.world.size)
	}
	switch c.world.opts.Gather {
	case GatherBinomial:
		return c.gatherBinomial(root, tag, data)
	default:
		return c.gatherFlat(root, tag, data)
	}
}

// gatherFlat is the paper's centralized gather: the root receives one
// message from every other rank.
func (c *Comm) gatherFlat(root, tag int, data []byte) ([][]byte, error) {
	if c.rank != root {
		return nil, c.send(root, tag, data)
	}
	out := c.gathered
	out[root] = data
	for i := 0; i < c.world.size-1; i++ {
		d, st, err := c.recvColl(AnySource, tag)
		if err != nil {
			return nil, err
		}
		out[st.Source] = d
	}
	return out, nil
}

// gatherBinomial aggregates along a binomial tree; each interior node
// bundles its subtree's contributions into one message.
func (c *Comm) gatherBinomial(root, tag int, data []byte) ([][]byte, error) {
	n := c.world.size
	vrank := (c.rank - root + n) % n
	acc := map[int][]byte{c.rank: data}
	// Receive from children first (mirror image of the bcast tree).
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			break
		}
		child := vrank | mask
		if child >= n {
			continue
		}
		d, _, err := c.recvColl((child+root)%n, tag)
		if err != nil {
			return nil, err
		}
		bundle, err := decodeBundle(d)
		if err != nil {
			return nil, err
		}
		for r, b := range bundle {
			acc[r] = b
		}
	}
	if vrank != 0 {
		parent := (vrank&(vrank-1) + root) % n
		return nil, c.send(parent, tag, encodeBundle(acc))
	}
	out := c.gathered
	for r, b := range acc {
		out[r] = b
	}
	return out, nil
}

// Scatter distributes parts from root: rank r receives parts[r]. Only the
// root's parts argument is consulted; it must have exactly Size entries.
// Variable sizes are allowed (doubles as Scatterv).
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	tag := collTag(opScatter, c.nextSeq())
	if c.rank == root {
		if len(parts) != c.world.size {
			return nil, fmt.Errorf("%w: Scatter root has %d parts for %d ranks", ErrSizes, len(parts), c.world.size)
		}
		for r := 0; r < c.world.size; r++ {
			if r == root {
				continue
			}
			if err := c.send(r, tag, parts[r]); err != nil {
				return nil, err
			}
		}
		return parts[root], nil
	}
	d, _, err := c.recvColl(root, tag)
	return d, err
}

// Forward moves src's data to dst and returns it there (nil at every other
// rank): the degenerate rooted collective, for a transfer the replicated state
// says has one contributor or one recipient. Every rank calls it, in order with
// the other collectives — it takes a sequence number, so the ranks' tags stay
// aligned — but only the two named ranks communicate, and neither allocates
// Gather's per-rank result or builds Scatter's per-rank parts.
func (c *Comm) Forward(src, dst int, data []byte) ([]byte, error) {
	if err := c.checkRank(src); err != nil {
		return nil, err
	}
	if err := c.checkRank(dst); err != nil {
		return nil, err
	}
	tag := collTag(opForward, c.nextSeq())
	switch {
	case c.rank == dst && c.rank == src:
		return data, nil
	case c.rank == src:
		return nil, c.send(dst, tag, data)
	case c.rank == dst:
		d, _, err := c.recvColl(src, tag)
		return d, err
	}
	return nil, nil
}

// Allgather collects every rank's data at every rank.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	all, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	var bundle []byte
	if c.rank == 0 {
		m := make(map[int][]byte, len(all))
		for r, b := range all {
			m[r] = b
		}
		bundle = encodeBundle(m)
	}
	bundle, err = c.Bcast(0, bundle)
	if err != nil {
		return nil, err
	}
	m, err := decodeBundle(bundle)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.world.size)
	for r, b := range m {
		if r < 0 || r >= len(out) {
			return nil, fmt.Errorf("rts: corrupt allgather bundle rank %d", r)
		}
		out[r] = b
	}
	return out, nil
}

// ReduceFunc combines two buffers into one. Implementations must be
// associative; commutativity is not required (combination order follows rank
// order).
type ReduceFunc func(a, b []byte) ([]byte, error)

// Reduce combines every rank's data with op and delivers the result to root
// (other ranks receive nil). Combination is performed in rank order:
// op(...op(op(r0, r1), r2)..., rN-1).
func (c *Comm) Reduce(root int, data []byte, op ReduceFunc) ([]byte, error) {
	all, err := c.Gather(root, data)
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	acc := all[0]
	for r := 1; r < len(all); r++ {
		acc, err = op(acc, all[r])
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// Allreduce is Reduce delivered to every rank.
func (c *Comm) Allreduce(data []byte, op ReduceFunc) ([]byte, error) {
	res, err := c.Reduce(0, data, op)
	if err != nil {
		return nil, err
	}
	return c.Bcast(0, res)
}

// Alltoall performs a personalized exchange: rank r's parts[d] is delivered
// as the d-th rank's result[r]. parts must have exactly Size entries; nil
// entries are allowed and arrive as empty slices. Variable sizes are allowed
// (doubles as Alltoallv).
func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	if len(parts) != c.world.size {
		return nil, fmt.Errorf("%w: Alltoall has %d parts for %d ranks", ErrSizes, len(parts), c.world.size)
	}
	tag := collTag(opAlltoall, c.nextSeq())
	out := make([][]byte, c.world.size)
	for d := 0; d < c.world.size; d++ {
		if d == c.rank {
			out[d] = parts[d]
			continue
		}
		if err := c.send(d, tag, parts[d]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < c.world.size-1; i++ {
		d, st, err := c.recvColl(AnySource, tag)
		if err != nil {
			return nil, err
		}
		out[st.Source] = d
	}
	return out, nil
}

// Scan computes an inclusive prefix reduction: rank r receives
// op(r0, r1, ..., rr), combined in rank order.
func (c *Comm) Scan(data []byte, op ReduceFunc) ([]byte, error) {
	tag := collTag(opScan, c.nextSeq())
	acc := data
	if c.rank > 0 {
		prev, _, err := c.recvColl(c.rank-1, tag)
		if err != nil {
			return nil, err
		}
		acc, err = op(prev, data)
		if err != nil {
			return nil, err
		}
	}
	if c.rank < c.world.size-1 {
		if err := c.send(c.rank+1, tag, acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// encodeBundle flattens a rank→payload map as [count][rank,len,bytes]...
func encodeBundle(m map[int][]byte) []byte {
	size := 4
	for _, b := range m {
		size += 8 + len(b)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(m)))
	for r, b := range m {
		out = binary.LittleEndian.AppendUint32(out, uint32(r))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

func decodeBundle(data []byte) (map[int][]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("rts: short bundle (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	m := make(map[int][]byte, n)
	for i := uint32(0); i < n; i++ {
		if len(data) < 8 {
			return nil, fmt.Errorf("rts: truncated bundle entry %d", i)
		}
		r := int(binary.LittleEndian.Uint32(data))
		l := int(binary.LittleEndian.Uint32(data[4:]))
		data = data[8:]
		if len(data) < l {
			return nil, fmt.Errorf("rts: truncated bundle payload (%d < %d)", len(data), l)
		}
		m[r] = data[:l:l]
		data = data[l:]
	}
	return m, nil
}

func encodeInt(v int) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func decodeInt(b []byte) int {
	return int(binary.LittleEndian.Uint64(b))
}
