// Package core implements PARDIS SPMD objects: the paper's primary
// contribution. An SPMD object is "an object associated with a set of one or
// more computing threads visible to the request broker, capable of
// satisfying services if and only if a request for them is delivered to all
// the computing threads" (paper §2).
//
// The package provides:
//
//   - Export: server-side registration of an SPMD object implementation
//     across all its computing threads, producing an IOR that carries one
//     endpoint per thread (multi-port) or the communicating thread's
//     endpoint only (centralized), and registering the name in the naming
//     domain.
//
//   - SPMDBind: the collective bind ("has to be called by all the computing
//     threads of a client... used by clients wishing to act as one entity");
//     Bind: the per-thread non-collective bind for the non-distributed
//     mapping.
//
//   - Invoke / InvokeNB: collective operation invocation with distributed
//     arguments, blocking or future-returning, over either argument
//     transfer method of §3:
//
//     Centralized (§3.2): distributed arguments are gathered at the client's
//     communicating thread, travel inside the request body over the single
//     connection, and are scattered by the server's communicating thread;
//     results flow back the same way.
//
//     Multi-port (§3.3): the invocation header is still delivered centrally
//     (avoiding inter-client contention), but argument data flows directly
//     between the owning computing threads over per-thread connections,
//     according to the redistribution plan between the client's and the
//     server's distribution templates.
package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/cdr"
	"repro/internal/dist"
	"repro/internal/dseq"
)

// Method selects the distributed argument transfer method of an invocation.
type Method int

const (
	// Centralized routes all argument data through the communicating
	// threads (paper §3.2).
	Centralized Method = iota
	// Multiport moves argument data directly between owning threads
	// (paper §3.3).
	Multiport
)

func (m Method) String() string {
	switch m {
	case Centralized:
		return "centralized"
	case Multiport:
		return "multi-port"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Dir is an IDL parameter passing mode.
type Dir int

const (
	In Dir = iota
	Out
	InOut
)

func (d Dir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	default:
		return fmt.Sprintf("Dir(%d)", int(d))
	}
}

// Errors reported by the SPMD engine.
var (
	ErrBadHeader   = errors.New("core: malformed invocation header")
	ErrArgMismatch = errors.New("core: arguments do not match operation signature")
	ErrNotSPMD     = errors.New("core: object reference is not an SPMD object")
	ErrNoMultiport = errors.New("core: object does not expose multi-port endpoints")
	ErrStopped     = errors.New("core: SPMD object stopped serving")
	// ErrBusy refuses an invocation issued while the binding's previous one
	// is outstanding: a binding carries one call in flight, and a client that
	// wants two binds twice.
	ErrBusy = errors.New("core: invocation already in progress on this binding")
)

// ErrStopServing is the sentinel a server-side operation handler returns
// (wrapped or bare) to make Serve return on every computing thread after
// the current request completes.
var ErrStopServing = errors.New("core: stop serving")

// ArgDesc describes one distributed parameter of an operation, as published
// by the server's interface description ("the server can set the
// distribution of a distributed sequence which is an `in' parameter to any
// of its operations before registering; otherwise, the distribution for that
// sequence will default to uniform blockwise", §2.2).
type ArgDesc struct {
	Name string
	Dir  Dir
	Elem string    // element type name; must match the client's codec
	Spec dist.Spec // server-side distribution template (nil = Block)
}

// specOrBlock returns the server's template, defaulting to uniform block.
func (a ArgDesc) specOrBlock() dist.Spec {
	if a.Spec == nil {
		return dist.Block{}
	}
	return a.Spec
}

// OpDesc describes an operation's distributed-argument signature. Scalar
// (non-distributed) arguments are opaque to the engine: they travel as a
// marshalled payload produced and consumed by generated stub code.
type OpDesc struct {
	Name string
	Args []ArgDesc
}

// results reports whether the operation returns distributed data, in an Out
// or InOut argument: whether its back leg moves anything, and so can fail.
func (d OpDesc) results() bool {
	return slices.ContainsFunc(d.Args, func(a ArgDesc) bool { return a.Dir != In })
}

// DistArg pairs a client-side sequence with its passing mode for one
// invocation.
type DistArg struct {
	Dir Dir
	Seq dseq.Transferable
}

// InSeq declares an "in" distributed argument.
func InSeq(s dseq.Transferable) DistArg { return DistArg{Dir: In, Seq: s} }

// OutSeq declares an "out" distributed argument; the sequence is resized to
// the server-chosen length and overwritten.
func OutSeq(s dseq.Transferable) DistArg { return DistArg{Dir: Out, Seq: s} }

// InOutSeq declares an "inout" distributed argument, like the paper's
// diff_array in diffusion().
func InOutSeq(s dseq.Transferable) DistArg { return DistArg{Dir: InOut, Seq: s} }

// describeOp is the reserved operation name the engine serves directly for
// bind-time interface discovery.
const describeOp = "_pardis_describe"

// encodeOpTable writes the server's operation table (reply of describeOp).
func encodeOpTable(e *cdr.Encoder, ops []OpDesc) {
	e.WriteULong(uint32(len(ops)))
	for _, op := range ops {
		e.WriteString(op.Name)
		e.WriteULong(uint32(len(op.Args)))
		for _, a := range op.Args {
			e.WriteString(a.Name)
			e.WriteEnum(uint32(a.Dir))
			e.WriteString(a.Elem)
			dist.EncodeSpec(e, a.specOrBlock())
		}
	}
}

// decodeOpTable reads an operation table.
func decodeOpTable(d *cdr.Decoder) ([]OpDesc, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("%w: %d operations", ErrBadHeader, n)
	}
	ops := make([]OpDesc, n)
	for i := range ops {
		if ops[i].Name, err = d.ReadString(); err != nil {
			return nil, err
		}
		na, err := d.ReadULong()
		if err != nil {
			return nil, err
		}
		if na > 1<<12 {
			return nil, fmt.Errorf("%w: %d args", ErrBadHeader, na)
		}
		ops[i].Args = make([]ArgDesc, na)
		for j := range ops[i].Args {
			a := &ops[i].Args[j]
			if a.Name, err = d.ReadString(); err != nil {
				return nil, err
			}
			dir, err := d.ReadEnum()
			if err != nil {
				return nil, err
			}
			if dir > uint32(InOut) {
				return nil, fmt.Errorf("%w: dir %d", ErrBadHeader, dir)
			}
			a.Dir = Dir(dir)
			if a.Elem, err = d.ReadString(); err != nil {
				return nil, err
			}
			if a.Spec, err = dist.DecodeSpec(d); err != nil {
				return nil, err
			}
		}
	}
	return ops, nil
}
