// Package transport moves PGIOP messages over byte streams.
//
// It provides the network plumbing the paper gets from NexusLite: framed,
// ordered delivery of wire messages over TCP connections (one per
// client-thread/server-thread pair in the multi-port method, a single one in
// the centralized method), plus an in-process pipe transport for tests and
// co-located components.
//
// A PGIOP message is one frame, whatever its size: WriteMessage writes one
// header and the body behind it, ReadMessage reads one header and the body it
// declares. Writes from multiple goroutines are serialized per connection, so
// one message's bytes are never interleaved with another's.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cdr"
	"repro/internal/wire"
)

// Errors reported by this package.
var (
	ErrClosed   = errors.New("transport: connection closed")
	ErrTooLarge = errors.New("transport: message exceeds size limit")
)

// MaxMessageSize bounds a message body. It is deliberately far above any
// benchmark's needs (a 2^19-double sequence is 4 MiB).
const MaxMessageSize = 1 << 30

// maxMessageSize is the enforced limit; tests lower it to exercise the
// oversize paths without allocating gigabyte buffers.
var maxMessageSize = MaxMessageSize

// Options configure a Conn.
type Options struct {
	// Order is the byte order this side produces. Zero value (BigEndian)
	// is valid; NewConn defaults to cdr.NativeOrder when Options is nil.
	Order cdr.ByteOrder
	// MaxFrameSize bounds a message body, written or read, overriding
	// MaxMessageSize when > 0. A frame header claiming more is rejected before
	// any allocation, so a corrupt or hostile header cannot force an unbounded
	// make([]byte, size).
	MaxFrameSize int
	// Wrap, when set, is applied to the underlying byte stream before
	// framing. Fault-injection tests use it to slot a FaultInjector between
	// the Conn and the real network.
	Wrap func(io.ReadWriteCloser) io.ReadWriteCloser
	// WriteTimeout bounds each WriteMessage call when the underlying stream
	// supports write deadlines (TCP does; the in-process pipe, which never
	// blocks on writes, does not need them). A peer that stops reading then
	// fails the writer with a deadline error instead of wedging it — and
	// every other goroutine queued on the connection's write lock — forever.
	// Zero disables.
	WriteTimeout time.Duration
	// FrameHook, when set, observes every inbound frame header before the
	// body is read. It runs on the reading goroutine; keep it cheap.
	FrameHook func(h wire.Header)
}

// writeDeadliner is the optional deadline surface of an underlying stream
// (satisfied by net.Conn). It is captured before Options.Wrap is applied, so
// fault-injection wrappers do not hide it.
type writeDeadliner interface {
	SetWriteDeadline(t time.Time) error
}

// Conn is a framed PGIOP connection over any byte stream. WriteMessage is
// safe for concurrent use; ReadMessage must be called from one goroutine at
// a time.
type Conn struct {
	rw       io.ReadWriteCloser
	br       *bufio.Reader
	bw       *bufio.Writer
	order    cdr.ByteOrder
	max      int
	wd       writeDeadliner
	wtimeout time.Duration
	hook     func(h wire.Header)
	rhdr     [wire.HeaderLen]byte // scratch for inbound frame headers (reader-owned)

	// vectored enables the gathered-write (writev) path. Only real TCP
	// connections qualify: on any other stream net.Buffers degrades to one
	// Write call per slice, which changes the write granularity that
	// fault-injection wrappers and the in-process pipe meter by.
	vectored bool

	wmu    sync.Mutex
	enc    *cdr.Encoder         // scratch encoder for the body up to its tail, guarded by wmu
	whdr   [wire.HeaderLen]byte // scratch header of the message being written, guarded by wmu
	vec    [][]byte             // header, prefix, tail of that message, guarded by wmu
	bufs   net.Buffers          // vec as the gathered write consumes it, guarded by wmu
	closed bool
	cmu    sync.Mutex

	// wbw is an EWMA of this connection's effective write bandwidth in
	// bytes/sec (float64 bits), fed by writes large enough to measure. Zero
	// until the first sample. The adaptive compression policy reads it to
	// decide whether a codec can outrun the link.
	wbw atomic.Uint64
}

// Write-bandwidth estimator tuning: samples below bwMinSampleBytes are
// dominated by fixed per-write costs and are skipped; bwAlpha is the
// EWMA smoothing factor (higher adapts faster, noisier).
const (
	bwMinSampleBytes = 4096
	bwAlpha          = 0.25
)

// noteWrite folds one timed write into the bandwidth EWMA.
func (c *Conn) noteWrite(n int, dur time.Duration) {
	if n < bwMinSampleBytes || dur <= 0 {
		return
	}
	bps := float64(n) / dur.Seconds()
	for {
		old := c.wbw.Load()
		est := bps
		if prev := math.Float64frombits(old); prev > 0 {
			est = prev + bwAlpha*(bps-prev)
		}
		if c.wbw.CompareAndSwap(old, math.Float64bits(est)) {
			return
		}
	}
}

// WriteBandwidth returns the estimated effective write bandwidth of
// this connection in bytes/sec, or 0 before any measurable write.
func (c *Conn) WriteBandwidth() float64 {
	return math.Float64frombits(c.wbw.Load())
}

// Read frames are rented from bufpool.Frames (that package has the ownership
// rule), but only MsgData bodies: every other message type's body is aliased
// and retained by higher layers (Request.Args, Reply.Args, ...), so those
// bodies are plain allocations that the garbage collector owns.

// PoolStat is a point-in-time copy of the frame pool's ledger. Its
// Outstanding is the number of rented frames not yet returned: a quiescent
// process (no in-flight messages, all Data consumers done) owes the pool
// nothing, so a non-zero steady-state value is a frame leak.
type PoolStat = bufpool.Stats

// PoolStats reads the frame pool's cumulative ledger — frames only, not
// dseq's chunks. It is process-wide: the pool is shared by every connection.
func PoolStats() PoolStat { return bufpool.Frames.Stats() }

// PoolOutstanding is a convenience for leak checks: the current borrow
// balance of the process-wide frame pool.
func PoolOutstanding() int64 { return PoolStats().Outstanding() }

// NewConn wraps a byte stream in PGIOP framing.
func NewConn(rw io.ReadWriteCloser, opts *Options) *Conn {
	wd, _ := rw.(writeDeadliner)
	_, isTCP := rw.(*net.TCPConn)
	if opts != nil && opts.Wrap != nil {
		rw = opts.Wrap(rw)
		isTCP = false
	}
	c := &Conn{
		vectored: isTCP,
		rw:       rw,
		br:       bufio.NewReaderSize(rw, 64<<10),
		bw:       bufio.NewWriterSize(rw, 64<<10),
		order:    cdr.NativeOrder,
		max:      maxMessageSize,
	}
	if opts != nil {
		c.order = opts.Order
		if opts.MaxFrameSize > 0 {
			c.max = opts.MaxFrameSize
		}
		if opts.WriteTimeout > 0 {
			c.wd = wd
			c.wtimeout = opts.WriteTimeout
		}
		c.hook = opts.FrameHook
	}
	return c
}

// vectoredMinTail is the tail size from which a TCP connection hands the tail
// to the socket in a gathered write instead of copying it through the
// buffered writer: below it the copy is cheaper than the iovec.
const vectoredMinTail = 4 << 10

// WriteMessage encodes and sends m as one frame. Only what precedes a
// message's tail octets (wire.TailMessage: Request.Args, Reply.Args,
// Data.Payload) is encoded, into a per-connection scratch buffer reused across
// messages; the tail is framed from where it lies, so a payload travels from
// the buffer it was gathered into to the socket with zero copies in our code.
func (c *Conn) WriteMessage(m wire.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.enc == nil {
		c.enc = cdr.NewEncoder(c.order)
	}
	e := c.enc
	e.Reset()
	var tail []byte
	if tm, ok := m.(wire.TailMessage); ok {
		tm.EncodeBodyPrefix(e)
		tail = tm.Tail()
	} else {
		m.EncodeBody(e)
	}
	total := e.Len() + len(tail)
	if total > c.max {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, total)
	}
	if c.isClosed() {
		return ErrClosed
	}
	if c.wd != nil {
		// The deadline covers the whole message and the flush; a deadline
		// error leaves the stream mid-frame, so callers must treat it as
		// fatal to the connection.
		_ = c.wd.SetWriteDeadline(time.Now().Add(c.wtimeout))
		defer c.wd.SetWriteDeadline(time.Time{})
	}
	// A field, not a local: passing a stack array's slice through an
	// io.Writer would move it to the heap once per message.
	c.whdr = wire.EncodeHeader(m.Type(), c.order, false, total)
	c.vec = append(c.vec[:0], c.whdr[:], e.Bytes(), tail)

	// Time writes big enough to measure for the bandwidth EWMA: from here to
	// the final flush is the serialized wire work, including any stall the
	// stream imposes (a throttled link back-pressures right here).
	sample := total >= bwMinSampleBytes
	var t0 time.Time
	if sample {
		t0 = time.Now()
	}
	var err error
	if c.vectored && len(tail) >= vectoredMinTail {
		// bw is empty between messages (every write flushes before releasing
		// wmu), so the gathered write cannot reorder bytes.
		// WriteTo consumes the slice it is called on; as a field, taking its
		// address does not move a slice header to the heap per message.
		c.bufs = net.Buffers(c.vec)
		_, err = c.bufs.WriteTo(c.rw)
	} else {
		// Small tails, and streams where net.Buffers would degrade to one
		// Write per slice (pipes, fault-injection wrappers), go through the
		// buffered writer: one flush per message.
		for _, b := range c.vec {
			if _, err = c.bw.Write(b); err != nil {
				break
			}
		}
		if err == nil {
			err = c.bw.Flush()
		}
	}
	// Drop tail references so a released buffer is not pinned by scratch.
	clear(c.vec)
	if sample && err == nil {
		c.noteWrite(total, time.Since(t0))
	}
	return err
}

// ReadMessage reads the next message. A returned *wire.Data holds a rented
// frame: its payload is valid until Release, which the final consumer must
// call after copying the elements out.
func (c *Conn) ReadMessage() (wire.Message, error) {
	hb := &c.rhdr // a local array would escape through io.ReadFull, once per frame
	if _, err := io.ReadFull(c.br, hb[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	h, err := wire.DecodeHeader(hb[:])
	if err != nil {
		return nil, err
	}
	if c.hook != nil {
		c.hook(h)
	}
	if int(h.Size) > c.max {
		return nil, fmt.Errorf("%w: frame body %d", ErrTooLarge, h.Size)
	}
	// A Data body is rented and no other message's is.
	rented := h.Type == wire.MsgData
	var body []byte
	if rented {
		body = bufpool.Frames.Rent(int(h.Size))[:h.Size]
	} else {
		body = make([]byte, h.Size)
	}
	if _, err := io.ReadFull(c.br, body); err != nil {
		if rented {
			bufpool.Frames.Return(body)
		}
		return nil, fmt.Errorf("transport: truncated frame: %w", err)
	}
	m, err := wire.DecodeBody(h.Type, body, h.Order())
	if err != nil {
		if rented {
			bufpool.Frames.Return(body)
		}
		return nil, err
	}
	if d, ok := m.(*wire.Data); ok {
		// The decoded payload aliases the frame; the message takes it over so
		// the consumer controls its lifetime.
		d.Lend(body)
	}
	return m, nil
}

func (c *Conn) isClosed() bool {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	return c.closed
}

// Close tears down the connection. It is idempotent.
func (c *Conn) Close() error {
	c.cmu.Lock()
	if c.closed {
		c.cmu.Unlock()
		return nil
	}
	c.closed = true
	c.cmu.Unlock()
	return c.rw.Close()
}

// Listener accepts PGIOP connections.
type Listener struct {
	nl   net.Listener
	opts *Options
}

// Listen starts a TCP listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string, opts *Options) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{nl: nl, opts: opts}, nil
}

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (*Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewConn(nc, l.opts), nil
}

// Addr returns the listener's bound address ("host:port").
func (l *Listener) Addr() string { return l.nl.Addr().String() }

// Port returns the listener's bound TCP port.
func (l *Listener) Port() int {
	if ta, ok := l.nl.Addr().(*net.TCPAddr); ok {
		return ta.Port
	}
	return 0
}

// Close stops accepting; established connections are unaffected.
func (l *Listener) Close() error { return l.nl.Close() }

// Dial connects to a PGIOP endpoint at addr.
func Dial(addr string, opts *Options) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewConn(nc, opts), nil
}

// Pipe returns two connected in-process endpoints, one per side, with
// unbounded buffering (writes never block on the peer's reads). It serves
// tests and co-located client/server pairs.
func Pipe(opts *Options) (*Conn, *Conn) {
	a2b := newPipeBuffer()
	b2a := newPipeBuffer()
	a := NewConn(&pipeEnd{r: b2a, w: a2b}, opts)
	b := NewConn(&pipeEnd{r: a2b, w: b2a}, opts)
	return a, b
}

// pipeBuffer is a byte queue usable as one direction of an in-process duplex
// stream: Write appends, Read blocks until data or close.
type pipeBuffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newPipeBuffer() *pipeBuffer {
	b := &pipeBuffer{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *pipeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, ErrClosed
	}
	b.buf = append(b.buf, p...)
	b.cond.Broadcast()
	return len(p), nil
}

func (b *pipeBuffer) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.buf) == 0 {
		if b.closed {
			return 0, io.EOF
		}
		b.cond.Wait()
	}
	n := copy(p, b.buf)
	b.buf = b.buf[n:]
	return n, nil
}

func (b *pipeBuffer) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// pipeEnd glues a read buffer and a write buffer into one ReadWriteCloser.
type pipeEnd struct {
	r, w *pipeBuffer
}

func (p *pipeEnd) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p *pipeEnd) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p *pipeEnd) Close() error {
	p.r.close()
	p.w.close()
	return nil
}
