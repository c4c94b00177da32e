package core

import (
	"bytes"
	"fmt"

	"repro/internal/cdr"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rts"
)

// An SPMD program acts as one entity only if its threads end every step the
// same way. Two primitives carry a step's outcome between them — share, when
// one thread knows it; agree, when each knows a part — in orb's one outcome
// encoding. A user or system exception arrives on every thread as itself (same
// type, repository id and fields, so errors.As answers alike everywhere); a
// connection-level failure that is no exception yet (naming.Stale: broken
// connection, timed-out exchange) arrives as COMM_FAILURE, so a Rebinder-style
// caller on any thread can still tell a reference worth re-resolving from a
// hard failure; any other error arrives as its text. Set-up (Export, SPMDBind,
// SPMDBindRef) and the invocation skeleton reach the other threads through
// these two and nothing else.

// okOutcome is the encoded clean outcome. Agreements run several times per
// call on every thread, almost always clean, so that path shares these
// read-only bytes and neither encodes nor decodes.
var okOutcome = encodeOutcome(func(*cdr.Encoder) error { return nil })

// encodeOutcome renders one thread's outcome: the payload produce wrote, or the
// error it returned in that payload's place. The payload's alignment origin is
// its own first byte, so what openOutcome returns opens with a fresh decoder.
func encodeOutcome(produce func(*cdr.Encoder) error) []byte {
	e := cdr.NewEncoder(cdr.NativeOrder)
	orb.EncodeOutcome(e, nil)
	e.MarkOrigin()
	if err := produce(e); err != nil {
		if naming.Stale(err) {
			err = commFailure(err)
		}
		e.Reset()
		orb.EncodeOutcome(e, err)
	}
	return e.Bytes()
}

// openOutcome reads the outcome that leads p: the error it carries, or — it
// was clean — the bytes that follow it.
func openOutcome(p []byte) ([]byte, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("%w: empty outcome", ErrBadHeader)
	}
	d := cdr.NewDecoder(p, cdr.NativeOrder)
	outcome, err := orb.DecodeOutcome(d)
	if err == nil {
		err = outcome
	}
	return p[d.Pos():], err
}

// share makes thread 0's outcome every thread's, in one broadcast. Thread 0
// alone runs produce (see encodeOutcome); every thread, thread 0 included,
// returns the payload or the error, rebuilt from the same bytes.
func share(comm *rts.Comm, produce func(*cdr.Encoder) error) ([]byte, error) {
	var p []byte
	if comm.Rank() == 0 {
		p = encodeOutcome(produce)
	}
	p, err := comm.Bcast(0, p)
	if err != nil {
		return nil, err
	}
	return openOutcome(p)
}

// agree merges per-thread outcomes into one: every thread contributes its
// local error (nil when clean) and every thread returns the same one, the
// lowest failing thread's. The gather and broadcast double as a
// synchronization point, which is what lets the invocation and upcall paths
// put it where a bare barrier would stand: a faulted thread reports instead of
// disappearing, so no thread waits in a collective its peers will never enter.
// clean is thread 0's: the outcome it broadcasts when no thread failed —
// okOutcome, or okOutcome and a tail (a payload, Poll's stop flag) — whose tail
// then rides behind the failing thread's outcome. Every thread returns the tail
// beside the error, so what thread 0 alone knows costs no broadcast of its own.
func agree(comm *rts.Comm, local error, clean []byte) ([]byte, error) {
	contrib := okOutcome
	if local != nil {
		contrib = encodeOutcome(func(*cdr.Encoder) error { return local })
	}
	all, err := comm.Gather(0, contrib)
	if err != nil {
		return nil, err
	}
	// Thread 0 relays the lowest failing thread's outcome as it stands; every
	// thread, this one included, decodes it below.
	verdict := clean
	for _, p := range all {
		if !bytes.Equal(p, okOutcome) {
			verdict = append(p[:len(p):len(p)], clean[len(okOutcome):]...)
			break
		}
	}
	if verdict, err = comm.Bcast(0, verdict); err != nil {
		return nil, err
	}
	if bytes.HasPrefix(verdict, okOutcome) {
		return verdict[len(okOutcome):], nil
	}
	return openOutcome(verdict)
}
