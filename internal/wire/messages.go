package wire

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/cdr"
)

// Request asks an object to perform an operation. Body layout mirrors the
// GIOP RequestHeader followed by the marshalled in/inout arguments.
type Request struct {
	RequestID        uint32
	ResponseExpected bool
	ObjectKey        []byte
	Operation        string
	Principal        string // identity of the requester (informational)
	Args             []byte // CDR-encoded argument payload (opaque here)
}

func (*Request) Type() MsgType { return MsgRequest }

// EncodeBodyPrefix implements TailMessage.
func (r *Request) EncodeBodyPrefix(e *cdr.Encoder) {
	e.WriteULong(r.RequestID)
	e.WriteBool(r.ResponseExpected)
	e.WriteOctets(r.ObjectKey)
	e.WriteString(r.Operation)
	e.WriteString(r.Principal)
	e.WriteULong(uint32(len(r.Args)))
}

// Tail implements TailMessage.
func (r *Request) Tail() []byte { return r.Args }

func (r *Request) EncodeBody(e *cdr.Encoder) { encodeTailBody(e, r) }

func decodeRequest(d *cdr.Decoder) (*Request, error) {
	var r Request
	var err error
	if r.RequestID, err = d.ReadULong(); err != nil {
		return nil, err
	}
	if r.ResponseExpected, err = d.ReadBool(); err != nil {
		return nil, err
	}
	if r.ObjectKey, err = d.ReadOctets(); err != nil {
		return nil, err
	}
	if r.Operation, err = d.ReadStringInterned(); err != nil {
		return nil, err
	}
	if r.Principal, err = d.ReadStringInterned(); err != nil {
		return nil, err
	}
	if r.Args, err = d.ReadOctets(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Reply answers a Request. For ReplyUserException and ReplySystemException
// the Args payload carries the marshalled exception.
type Reply struct {
	RequestID uint32
	Status    ReplyStatus
	Args      []byte
}

func (*Reply) Type() MsgType { return MsgReply }

// EncodeBodyPrefix implements TailMessage.
func (r *Reply) EncodeBodyPrefix(e *cdr.Encoder) {
	e.WriteULong(r.RequestID)
	e.WriteEnum(uint32(r.Status))
	e.WriteULong(uint32(len(r.Args)))
}

// Tail implements TailMessage.
func (r *Reply) Tail() []byte { return r.Args }

func (r *Reply) EncodeBody(e *cdr.Encoder) { encodeTailBody(e, r) }

func decodeReply(d *cdr.Decoder) (*Reply, error) {
	var r Reply
	var err error
	if r.RequestID, err = d.ReadULong(); err != nil {
		return nil, err
	}
	s, err := d.ReadEnum()
	if err != nil {
		return nil, err
	}
	if s > uint32(ReplySystemException) {
		return nil, fmt.Errorf("%w: reply status %d", ErrBadBody, s)
	}
	r.Status = ReplyStatus(s)
	if r.Args, err = d.ReadOctets(); err != nil {
		return nil, err
	}
	return &r, nil
}

// LocateRequest asks whether the peer serves the given object key.
type LocateRequest struct {
	RequestID uint32
	ObjectKey []byte
}

func (*LocateRequest) Type() MsgType { return MsgLocateRequest }

func (l *LocateRequest) EncodeBody(e *cdr.Encoder) {
	e.WriteULong(l.RequestID)
	e.WriteOctets(l.ObjectKey)
}

func decodeLocateRequest(d *cdr.Decoder) (*LocateRequest, error) {
	var l LocateRequest
	var err error
	if l.RequestID, err = d.ReadULong(); err != nil {
		return nil, err
	}
	if l.ObjectKey, err = d.ReadOctets(); err != nil {
		return nil, err
	}
	return &l, nil
}

// LocateReply answers a LocateRequest.
type LocateReply struct {
	RequestID uint32
	Status    LocateStatus
}

func (*LocateReply) Type() MsgType { return MsgLocateReply }

func (l *LocateReply) EncodeBody(e *cdr.Encoder) {
	e.WriteULong(l.RequestID)
	e.WriteEnum(uint32(l.Status))
}

func decodeLocateReply(d *cdr.Decoder) (*LocateReply, error) {
	var l LocateReply
	var err error
	if l.RequestID, err = d.ReadULong(); err != nil {
		return nil, err
	}
	s, err := d.ReadEnum()
	if err != nil {
		return nil, err
	}
	if s > uint32(LocateHere) {
		return nil, fmt.Errorf("%w: locate status %d", ErrBadBody, s)
	}
	l.Status = LocateStatus(s)
	return &l, nil
}

// CloseConnection announces an orderly shutdown of the connection.
type CloseConnection struct{}

func (*CloseConnection) Type() MsgType           { return MsgCloseConnection }
func (*CloseConnection) EncodeBody(*cdr.Encoder) {}

// MessageError reports that the peer sent an unintelligible message.
type MessageError struct{}

func (*MessageError) Type() MsgType           { return MsgMessageError }
func (*MessageError) EncodeBody(*cdr.Encoder) {}

// Data flag bits (the Flags octet of a Data body).
const (
	// DataFlagChunk marks a chunk of a transfer leg, which every Data message
	// that carries argument data is: DstOff and Count address the argument's
	// global index space (a centralized leg) or the destination thread's local
	// part (a multi-port one), and the chunks follow the deterministic schedule
	// both sides derive from the lengths, the layouts and the chunk size the
	// leg's header announced.
	DataFlagChunk = 1 << 0
	// DataFlagLast marks the final chunk of its move: of its argument's stream
	// on a centralized leg, of one contiguous piece of the plan on a multi-port
	// one.
	DataFlagLast = 1 << 1
)

// Data is the PARDIS multi-port extension message: one contiguous piece of
// one distributed argument of one outstanding request, flowing directly
// between computing threads. DstOff and Count are in elements; the payload
// is a chunk as internal/dseq renders it — a packed CDR array of the
// argument's element type, a compressed envelope or the fail marker — which
// its first byte tells apart.
type Data struct {
	RequestID uint32
	ArgIndex  uint32 // which distributed argument of the operation
	SrcRank   uint32 // sending computing thread
	DstRank   uint32 // receiving computing thread
	DstOff    uint64 // destination local offset, in elements
	Count     uint64 // number of elements
	Reply     bool   // false: client→server ("in" flow); true: server→client
	Flags     byte   // DataFlag* bits; zero for plain multi-port moves
	Payload   []byte

	// frame is the transport buffer Payload aliases while it is on loan from
	// bufpool.Frames; nil for messages whose payload the receiver owns
	// outright.
	frame []byte
	// released marks a received message from its Release until the struct is
	// handed out again: what a second Release or a late Chunked/LastChunk
	// trips over.
	released bool
}

// received recycles the struct a Data frame is decoded into: decodeData takes
// one, the consumer's Release gives it back with its frame, so a streamed
// chunk costs its receiver no object. It is a plain bounded stack and not a
// sync.Pool because of how a reply leg releases: a whole schedule, up to
// maxReceived chunks, in one burst after its Reply — and a sync.Pool, emptied
// by every collection, grows its chain anew on the next burst (8 objects).
var received struct {
	sync.Mutex
	free []*Data
}

// maxReceived bounds the idle structs kept (96 KiB of them); the chunks one
// leg sends one thread (core's maxStreamChunks) fit, but for a leg with more
// flows into a thread than that, each of them a chunk.
const maxReceived = 1024

func takeReceived() *Data {
	received.Lock()
	defer received.Unlock()
	if n := len(received.free); n > 0 {
		m := received.free[n-1]
		received.free = received.free[:n-1]
		return m
	}
	return new(Data)
}

func putReceived(m *Data) {
	received.Lock()
	defer received.Unlock()
	if len(received.free) < maxReceived {
		received.free = append(received.free, m)
	}
}

// guardReleases keeps released structs out of the pool, so the released mark
// stays on them for good; see GuardReleases.
var guardReleases atomic.Bool

// GuardReleases is for tests: while on, a released Data struct is never handed
// out again, so every second Release and every Chunked or LastChunk after
// Release panics — without it only those that come before the struct's next
// use do, and the rest corrupt whoever holds it by then.
func GuardReleases(on bool) { guardReleases.Store(on) }

func (m *Data) live() {
	if m.released {
		panic("wire: Data used after Release")
	}
}

// Chunked reports whether the message is a chunk of a streamed transfer.
func (m *Data) Chunked() bool { m.live(); return m.Flags&DataFlagChunk != 0 }

// LastChunk reports whether the message is the final chunk of its move.
func (m *Data) LastChunk() bool { m.live(); return m.Flags&DataFlagLast != 0 }

func (*Data) Type() MsgType { return MsgData }

// DataPrefixLen is the encoded size of a Data body up to and including the
// octet-sequence count that precedes the payload: four uint32 fields (16
// bytes), two 8-aligned uint64s at offsets 16 and 24, the Reply bool at 32,
// the Flags octet at 33, padding to 36, and the uint32 payload length. Payload
// bytes start at this offset in every Data body.
const DataPrefixLen = 40

// EncodeBodyPrefix implements TailMessage: everything up to and including
// the payload length count, DataPrefixLen bytes.
func (m *Data) EncodeBodyPrefix(e *cdr.Encoder) {
	e.WriteULong(m.RequestID)
	e.WriteULong(m.ArgIndex)
	e.WriteULong(m.SrcRank)
	e.WriteULong(m.DstRank)
	e.WriteULongLong(m.DstOff)
	e.WriteULongLong(m.Count)
	e.WriteBool(m.Reply)
	e.WriteOctet(m.Flags)
	e.WriteULong(uint32(len(m.Payload)))
}

// Tail implements TailMessage.
func (m *Data) Tail() []byte { return m.Payload }

func (m *Data) EncodeBody(e *cdr.Encoder) { encodeTailBody(e, m) }

// Lend records the frame, rented from bufpool.Frames, that Payload aliases;
// ownership passes to the message. The transport calls it when it hands off a
// Data message it read.
func (m *Data) Lend(frame []byte) { m.frame = frame }

// Release returns the frame backing Payload to bufpool.Frames and the struct
// itself to the pool received messages are decoded into. The final consumer of
// a received Data message must call it exactly once, after copying the payload
// out (e.g. via Seq.UnmarshalRange), and must not touch the message again:
// the struct is the next frame's by then, so a second Release gives away a
// frame somebody else is reading. It panics where it can tell (always under
// GuardReleases). On a message without a lent frame — one the caller built —
// it is a no-op, any number of times.
func (m *Data) Release() {
	if m.released {
		panic("wire: Data released twice")
	}
	if m.frame == nil {
		return
	}
	bufpool.Frames.Return(m.frame)
	*m = Data{released: true}
	if !guardReleases.Load() {
		putReceived(m)
	}
}

// decodeData fills a struct from the pool; its consumer's Release gives the
// struct back (a message nobody releases is the collector's).
func decodeData(d *cdr.Decoder) (*Data, error) {
	m := takeReceived()
	*m = Data{}
	if err := m.decode(d); err != nil {
		putReceived(m)
		return nil, err
	}
	return m, nil
}

func (m *Data) decode(d *cdr.Decoder) (err error) {
	if m.RequestID, err = d.ReadULong(); err != nil {
		return err
	}
	if m.ArgIndex, err = d.ReadULong(); err != nil {
		return err
	}
	if m.SrcRank, err = d.ReadULong(); err != nil {
		return err
	}
	if m.DstRank, err = d.ReadULong(); err != nil {
		return err
	}
	if m.DstOff, err = d.ReadULongLong(); err != nil {
		return err
	}
	if m.Count, err = d.ReadULongLong(); err != nil {
		return err
	}
	if m.Reply, err = d.ReadBool(); err != nil {
		return err
	}
	if m.Flags, err = d.ReadOctet(); err != nil {
		return err
	}
	if m.Flags&^(DataFlagChunk|DataFlagLast) != 0 {
		return fmt.Errorf("%w: reserved Data flag bits %#x", ErrBadBody, m.Flags)
	}
	m.Payload, err = d.ReadOctets()
	return err
}

// Ping probes a peer's liveness on an idle connection. Its body is the nonce
// alone, echoed back in the matching Pong; it carries no semantics beyond
// letting a debugger pair probes with responses on a wire dump.
type Ping struct{ Nonce uint32 }

func (*Ping) Type() MsgType { return MsgPing }

func (p *Ping) EncodeBody(e *cdr.Encoder) { e.WriteULong(p.Nonce) }

// Pong answers a Ping, echoing its nonce.
type Pong struct{ Nonce uint32 }

func (*Pong) Type() MsgType { return MsgPong }

func (p *Pong) EncodeBody(e *cdr.Encoder) { e.WriteULong(p.Nonce) }

func decodePing(d *cdr.Decoder) (*Ping, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	return &Ping{Nonce: n}, nil
}

func decodePong(d *cdr.Decoder) (*Pong, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	return &Pong{Nonce: n}, nil
}

// Encode renders a complete message (header + body) in the given byte order.
// The transport frames a message's tail from where it lies instead; Encode is
// the convenience path and the wire-format oracle for tests and the wiredump
// tool.
func Encode(m Message, ord cdr.ByteOrder) []byte {
	e := cdr.NewEncoder(ord)
	EncodeInto(e, m)
	return e.Bytes()
}

// EncodeInto appends a complete message (header + body) to e,
// which must be in the message's byte order. Header and body share e's
// buffer: EncodeInto reserves HeaderLen zero bytes, marks them as the body's
// alignment origin (HeaderLen is not 8-aligned, so the body must align
// relative to its own start), encodes the body, then patches the header in
// place once the size is known.
func EncodeInto(e *cdr.Encoder, m Message) {
	start := e.Len()
	e.WriteRaw(emptyHeader[:])
	e.MarkOrigin()
	m.EncodeBody(e)
	h := EncodeHeader(m.Type(), e.Order(), false, e.Len()-start-HeaderLen)
	copy(e.Bytes()[start:], h[:])
}

var emptyHeader [HeaderLen]byte

// DecodeBody parses a message body of the given type.
func DecodeBody(t MsgType, body []byte, ord cdr.ByteOrder) (Message, error) {
	d := cdr.NewDecoder(body, ord)
	var (
		m   Message
		err error
	)
	switch t {
	case MsgRequest:
		m, err = decodeRequest(d)
	case MsgReply:
		m, err = decodeReply(d)
	case MsgLocateRequest:
		m, err = decodeLocateRequest(d)
	case MsgLocateReply:
		m, err = decodeLocateReply(d)
	case MsgCloseConnection:
		m = &CloseConnection{}
	case MsgMessageError:
		m = &MessageError{}
	case MsgData:
		m, err = decodeData(d)
	case MsgPing:
		m, err = decodePing(d)
	case MsgPong:
		m, err = decodePong(d)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, t)
	}
	if err != nil {
		return nil, fmt.Errorf("decoding %v: %w", t, err)
	}
	return m, nil
}
