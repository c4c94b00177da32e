// Package wire defines PGIOP, the PARDIS General Inter-ORB Protocol: the
// message set exchanged between PARDIS clients, servers and the naming
// service.
//
// PGIOP plays the role GIOP/IIOP plays for CORBA. It keeps the part of GIOP's
// message vocabulary a PARDIS peer reads (Request, Reply, LocateRequest,
// LocateReply, CloseConnection, MessageError, Fragment) and adds one
// PARDIS-specific message, Data, which carries a chunk of a distributed
// argument: directly
// between a client computing thread and a server computing thread in the
// multi-port transfer method (paper §3.3), between the communicating threads
// when a centralized leg (§3.2) streams. A small centralized argument travels
// entirely inside the Request/Reply bodies, exactly as in CORBA.
//
// Every message is a 12-byte header followed by a CDR-encoded body:
//
//	offset 0  magic   "PDIS"
//	offset 4  version 0x07; any other value is refused (ErrBadVersion)
//	offset 5  flags   bit 0: body byte order (1 = little endian)
//	                  bit 1: more fragments follow
//	                  bits 2-7: reserved, refused when set (ErrBadFlags)
//	offset 6  type    MsgType
//	offset 7  reserved (0)
//	offset 8  size    uint32 body length, in the header's byte order
//
// There is one wire version, one header layout and no negotiation of either:
// the version octet of every frame is checked, a server answers a frame of
// another version with MessageError and closes, and a client fails the
// connection with an error that wraps ErrBadVersion. Every field of every
// body is required.
//
// Bodies larger than a connection's fragment threshold are split across a
// leading message and trailing Fragment messages (transport concern; see
// internal/transport).
//
// # Reply ordering and request multiplexing
//
// PGIOP connections are multiplexed: a peer may have any number of requests
// outstanding on one connection, and replies carry the request id they answer.
// A server MAY answer requests in any order — receivers MUST dispatch each
// Reply (and each Data frame) by its request id rather than by arrival order.
// The only ordering PGIOP does guarantee is per-message-stream FIFO: the Data
// chunks of one streamed argument arrive in the order they were sent on that
// connection, and all reply-direction Data chunks of a request precede its
// Reply on the wire.
//
// # Chunked transfers
//
// Every transfer outside a Request/Reply body moves a distributed argument as
// a sequence of Data messages (the chunk framing): Flags carries DataFlagChunk,
// plus DataFlagLast on the final chunk of a move. A streamed centralized leg
// has one move per argument, between the communicating threads, and its
// chunks' DstOff/Count address a range of the argument's global index space; a
// multi-port leg has the moves of the redistribution plan between the two
// layouts, each between the threads SrcRank and DstRank that own its ends, and
// DstOff is an offset into the destination thread's local part. Either way the
// chunk schedule is derived deterministically on both sides from the lengths
// and layouts and the chunk size the leg's header announced — the invocation
// header for argument chunks and both multi-port legs, the reply header for
// streamed result chunks — so neither side needs per-chunk control traffic.
// Flow control is structural: a sender may never have more chunk frames
// outstanding towards one thread for one request than the receiver's
// per-request buffer bound (see internal/core); chunk sizes are raised so a
// whole leg fits inside that bound, and a plan that cannot is refused.
package wire

import (
	"errors"
	"fmt"

	"repro/internal/cdr"
)

// Protocol constants.
var Magic = [4]byte{'P', 'D', 'I', 'S'}

const (
	// Version is the one protocol version this build speaks; DecodeHeader
	// refuses every other.
	Version = 7
	// HeaderLen is the message header size.
	HeaderLen = 12
	// FlagLittleEndian marks the body (and header size field) byte order.
	FlagLittleEndian = 1 << 0
	// FlagMoreFragments marks that the body continues in Fragment messages.
	FlagMoreFragments = 1 << 1
)

// MsgType discriminates PGIOP messages.
type MsgType byte

const (
	MsgRequest MsgType = iota
	MsgReply
	MsgLocateRequest
	MsgLocateReply
	MsgCloseConnection
	MsgMessageError
	MsgFragment
	// MsgData is the PARDIS extension: one contiguous piece of a
	// distributed argument, addressed to a specific computing thread.
	MsgData
	// MsgPing and MsgPong are liveness keepalives: either peer may send a
	// Ping on an idle connection and expects a Pong echoing the nonce. A
	// connection whose peer stays silent past the keepalive grace period is
	// declared dead, which is how a SIGKILL'd process (no FIN, no RST until
	// much later) is detected promptly on both request and Data connections.
	MsgPing
	MsgPong
	numMsgTypes
)

var msgTypeNames = [...]string{
	"Request", "Reply", "LocateRequest", "LocateReply",
	"CloseConnection", "MessageError", "Fragment", "Data", "Ping", "Pong",
}

func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// Valid reports whether t is a known message type.
func (t MsgType) Valid() bool { return t < numMsgTypes }

// Errors reported by this package.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadFlags   = errors.New("wire: reserved flag bits set")
	ErrBadType    = errors.New("wire: unknown message type")
	ErrBadBody    = errors.New("wire: malformed message body")
)

// ReplyStatus mirrors GIOP's reply status values.
type ReplyStatus uint32

const (
	ReplyNoException ReplyStatus = iota
	ReplyUserException
	ReplySystemException
)

func (s ReplyStatus) String() string {
	switch s {
	case ReplyNoException:
		return "NO_EXCEPTION"
	case ReplyUserException:
		return "USER_EXCEPTION"
	case ReplySystemException:
		return "SYSTEM_EXCEPTION"
	default:
		return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
	}
}

// LocateStatus mirrors GIOP's locate reply status values.
type LocateStatus uint32

const (
	LocateUnknown LocateStatus = iota
	LocateHere
)

// Message is the interface all PGIOP message bodies implement.
type Message interface {
	// Type returns the header discriminant for this body.
	Type() MsgType
	// EncodeBody writes the body in CDR.
	EncodeBody(e *cdr.Encoder)
}

// TailMessage is a message whose body ends in an octet sequence it carries by
// reference — Request.Args, Reply.Args, Data.Payload, each the last field of
// its body. The transport frames such a message without copying the tail: it
// encodes the prefix into scratch and writes the tail from where it lies.
type TailMessage interface {
	Message
	// EncodeBodyPrefix encodes everything up to and including the tail's
	// count, but not its bytes. EncodeBody is prefix-then-tail, so the two
	// can never drift apart.
	EncodeBodyPrefix(e *cdr.Encoder)
	// Tail returns the trailing octets.
	Tail() []byte
}

func encodeTailBody(e *cdr.Encoder, m TailMessage) {
	m.EncodeBodyPrefix(e)
	e.WriteRaw(m.Tail())
}

// Header is a decoded message header.
type Header struct {
	Flags byte
	Type  MsgType
	Size  uint32
}

// Order returns the byte order declared by the header flags.
func (h Header) Order() cdr.ByteOrder {
	if h.Flags&FlagLittleEndian != 0 {
		return cdr.LittleEndian
	}
	return cdr.BigEndian
}

// More reports whether Fragment messages follow.
func (h Header) More() bool { return h.Flags&FlagMoreFragments != 0 }

// EncodeHeader renders a header for a body of the given size in order ord.
func EncodeHeader(t MsgType, ord cdr.ByteOrder, more bool, size int) [HeaderLen]byte {
	var b [HeaderLen]byte
	copy(b[:4], Magic[:])
	b[4] = Version
	if ord == cdr.LittleEndian {
		b[5] |= FlagLittleEndian
	}
	if more {
		b[5] |= FlagMoreFragments
	}
	b[6] = byte(t)
	if ord == cdr.LittleEndian {
		b[8] = byte(size)
		b[9] = byte(size >> 8)
		b[10] = byte(size >> 16)
		b[11] = byte(size >> 24)
	} else {
		b[8] = byte(size >> 24)
		b[9] = byte(size >> 16)
		b[10] = byte(size >> 8)
		b[11] = byte(size)
	}
	return b
}

// DecodeHeader parses and validates a header.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("%w: header %d bytes", cdr.ErrTruncated, len(b))
	}
	if [4]byte(b[:4]) != Magic {
		return Header{}, fmt.Errorf("%w: % x", ErrBadMagic, b[:4])
	}
	if b[4] != Version {
		return Header{}, fmt.Errorf("%w: %d", ErrBadVersion, b[4])
	}
	h := Header{Flags: b[5], Type: MsgType(b[6])}
	if h.Flags&^(FlagLittleEndian|FlagMoreFragments) != 0 {
		// Reserved flag bits must be zero; garbage here means a corrupt or
		// alien frame, and rejecting it now beats misreading the body later.
		return Header{}, fmt.Errorf("%w: reserved flag bits %#x", ErrBadFlags, b[5])
	}
	if !h.Type.Valid() {
		return Header{}, fmt.Errorf("%w: %d", ErrBadType, b[6])
	}
	if h.Flags&FlagLittleEndian != 0 {
		h.Size = uint32(b[8]) | uint32(b[9])<<8 | uint32(b[10])<<16 | uint32(b[11])<<24
	} else {
		h.Size = uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11])
	}
	return h, nil
}
