package orb

import (
	"errors"
	"fmt"

	"repro/internal/cdr"
	"repro/internal/wire"
)

// UserException is an application-defined exception declared in IDL. A
// servant returns one from Dispatch to produce a USER_EXCEPTION reply; the
// client-side stub rebuilds it from the reply body. Payload carries any
// exception members marshalled by generated code.
type UserException struct {
	RepoID  string // repository id of the exception type
	Message string
	Payload []byte
}

func (e *UserException) Error() string {
	if e.Message == "" {
		return e.RepoID
	}
	return fmt.Sprintf("%s: %s", e.RepoID, e.Message)
}

// SystemException mirrors CORBA system exceptions: raised by the ORB (or by
// a servant for infrastructure failures) and reported as SYSTEM_EXCEPTION
// replies.
type SystemException struct {
	RepoID  string // e.g. "IDL:PARDIS/BAD_OPERATION:1.0"
	Minor   uint32
	Message string
}

func (e *SystemException) Error() string {
	return fmt.Sprintf("%s (minor %d): %s", e.RepoID, e.Minor, e.Message)
}

// Well-known system exception repository ids.
const (
	RepoBadOperation   = "IDL:PARDIS/BAD_OPERATION:1.0"
	RepoObjectNotExist = "IDL:PARDIS/OBJECT_NOT_EXIST:1.0"
	RepoMarshal        = "IDL:PARDIS/MARSHAL:1.0"
	RepoInternal       = "IDL:PARDIS/INTERNAL:1.0"
	RepoComm           = "IDL:PARDIS/COMM_FAILURE:1.0"
	RepoTimeout        = "IDL:PARDIS/TIMEOUT:1.0"
	RepoTransient      = "IDL:PARDIS/TRANSIENT:1.0"
)

// Transient builds the standard overload-shedding exception: the server is
// alive but refused to take on the request (admission-control caps hit, or a
// drain in progress). Like CORBA's TRANSIENT, it tells the client the request
// was never dispatched and may safely be retried — here or on a replica.
func Transient(msg string) *SystemException {
	return &SystemException{RepoID: RepoTransient, Message: msg}
}

// IsTransient reports whether err is a TRANSIENT system exception (the
// server shed the request without dispatching it).
func IsTransient(err error) bool {
	var se *SystemException
	return errors.As(err, &se) && se.RepoID == RepoTransient
}

// BadOperation builds the standard exception for an unknown operation name.
func BadOperation(op string) *SystemException {
	return &SystemException{RepoID: RepoBadOperation, Message: fmt.Sprintf("unknown operation %q", op)}
}

// ObjectNotExist builds the standard exception for an unknown object key.
func ObjectNotExist(key []byte) *SystemException {
	return &SystemException{RepoID: RepoObjectNotExist, Message: fmt.Sprintf("no servant with key %q", key)}
}

// Marshal builds the standard exception for argument (de)marshalling
// failures.
func Marshal(err error) *SystemException {
	return &SystemException{RepoID: RepoMarshal, Message: err.Error()}
}

// An outcome is how one step of a call ended: clean, or the error that ended
// it. One encoding carries it wherever it travels — between processes as the
// body of an exceptional reply, whose status says which kind it is, and between
// the threads of an SPMD program (core's share and agree), where a leading kind
// octet does. The exception fields are written and read here and nowhere else.
const (
	outcomeOK     byte = iota
	outcomeUser        // repository id, message, payload
	outcomeSystem      // repository id, minor, message
	outcomeOther       // any other error: its text, which is all of it that travels
)

func (e *UserException) encode(enc *cdr.Encoder) {
	enc.WriteString(e.RepoID)
	enc.WriteString(e.Message)
	enc.WriteOctets(e.Payload)
}

func (e *SystemException) encode(enc *cdr.Encoder) {
	enc.WriteString(e.RepoID)
	enc.WriteULong(e.Minor)
	enc.WriteString(e.Message)
}

// EncodeOutcome appends err led by its kind: a user or system exception
// anywhere in err's chain keeps its type, repository id and fields, any other
// error crosses as its text, and nil is the single ok octet.
func EncodeOutcome(e *cdr.Encoder, err error) {
	if err == nil {
		e.WriteOctet(outcomeOK)
		return
	}
	var ue *UserException
	var se *SystemException
	switch {
	case errors.As(err, &ue):
		e.WriteOctet(outcomeUser)
		ue.encode(e)
	case errors.As(err, &se):
		e.WriteOctet(outcomeSystem)
		se.encode(e)
	default:
		e.WriteOctet(outcomeOther)
		e.WriteString(err.Error())
	}
}

// DecodeOutcome reads what EncodeOutcome wrote: the outcome (nil for ok), or
// the error that kept it from being read.
func DecodeOutcome(d *cdr.Decoder) (outcome, err error) {
	kind, err := d.ReadOctet()
	if err != nil {
		return nil, err
	}
	return decodeOutcome(d, kind)
}

// decodeOutcome reads the fields of an outcome of the given kind.
func decodeOutcome(d *cdr.Decoder, kind byte) (outcome, err error) {
	switch kind {
	case outcomeOK:
		return nil, nil
	case outcomeUser:
		var ue UserException
		if ue.RepoID, err = d.ReadString(); err != nil {
			return nil, err
		}
		if ue.Message, err = d.ReadString(); err != nil {
			return nil, err
		}
		if ue.Payload, err = d.ReadOctets(); err != nil {
			return nil, err
		}
		return &ue, nil
	case outcomeSystem:
		var se SystemException
		if se.RepoID, err = d.ReadString(); err != nil {
			return nil, err
		}
		if se.Minor, err = d.ReadULong(); err != nil {
			return nil, err
		}
		if se.Message, err = d.ReadString(); err != nil {
			return nil, err
		}
		return &se, nil
	case outcomeOther:
		msg, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		return errors.New(msg), nil
	default:
		return nil, fmt.Errorf("%w: outcome kind %d", cdr.ErrInvalid, kind)
	}
}

// encodeException renders an exception as a reply body: the fields of its
// outcome, the kind travelling as the reply status. An error that is no
// exception is reported as INTERNAL.
func encodeException(e *cdr.Encoder, err error) wire.ReplyStatus {
	var ue *UserException
	if errors.As(err, &ue) {
		ue.encode(e)
		return wire.ReplyUserException
	}
	var se *SystemException
	if !errors.As(err, &se) {
		se = &SystemException{RepoID: RepoInternal, Message: err.Error()}
	}
	se.encode(e)
	return wire.ReplySystemException
}

// decodeException rebuilds the error carried by an exceptional reply. The
// body is an argument payload (leading byte-order octet).
func decodeException(status wire.ReplyStatus, body []byte) error {
	var kind byte
	switch status {
	case wire.ReplyUserException:
		kind = outcomeUser
	case wire.ReplySystemException:
		kind = outcomeSystem
	default:
		return fmt.Errorf("orb: unexpected reply status %v", status)
	}
	d, err := ArgDecoder(body)
	if err != nil {
		return fmt.Errorf("orb: corrupt exception payload: %w", err)
	}
	exc, err := decodeOutcome(d, kind)
	if err != nil {
		return fmt.Errorf("orb: corrupt %v body: %w", status, err)
	}
	return exc
}
