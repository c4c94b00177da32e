package orb

import (
	"fmt"

	"repro/internal/cdr"
)

// Argument payloads (the Args fields of Request and Reply) are
// self-describing: the first octet is a byte-order flag, and the remaining
// bytes are the CDR stream of the operation's arguments or results with the
// payload start as alignment origin — exactly the layout of a CDR
// encapsulation body. This keeps receiver-makes-right working even when a
// payload is copied between connections of different orders (the SPMD
// centralized engine forwards payloads it did not produce).

// NewArgEncoder starts an argument payload in the native order. Generated
// stubs and skeletons write their arguments into it.
func NewArgEncoder() *cdr.Encoder {
	e := cdr.NewEncoder(cdr.NativeOrder)
	e.WriteOctet(byte(cdr.NativeOrder))
	return e
}

// ResetArgEncoder rewinds an encoder produced by NewArgEncoder to an empty
// argument payload, keeping its buffer. Any Bytes() slice taken before the
// reset is invalidated; callers reuse an encoder only once its previous
// payload has been copied out.
func ResetArgEncoder(e *cdr.Encoder) {
	e.Reset()
	e.WriteOctet(byte(cdr.NativeOrder))
}

// ArgDecoder opens an argument payload produced by NewArgEncoder. An empty
// payload is valid (operation with no arguments/results) and yields an
// exhausted decoder.
func ArgDecoder(payload []byte) (*cdr.Decoder, error) {
	d := new(cdr.Decoder)
	return d, OpenArgs(d, payload)
}

// OpenArgs is ArgDecoder into a decoder the caller holds — on its stack, or
// kept for reuse — so opening a payload allocates nothing.
func OpenArgs(d *cdr.Decoder, payload []byte) error {
	if len(payload) == 0 {
		*d = *cdr.NewDecoder(nil, cdr.NativeOrder)
		return nil
	}
	if payload[0] > 1 {
		return fmt.Errorf("%w: argument payload order flag %d", cdr.ErrInvalid, payload[0])
	}
	*d = *cdr.NewDecoder(payload, cdr.ByteOrder(payload[0]))
	_, err := d.ReadOctet()
	return err
}
