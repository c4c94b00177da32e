// Package pardis is the public facade of the PARDIS reproduction: a
// CORBA-style request broker with first-class support for parallel (SPMD)
// clients and servers and distributed sequence arguments, after
//
//	K. Keahey and D. Gannon, "PARDIS: A Parallel Approach to CORBA",
//	Proc. 6th IEEE Int. Symp. on High Performance Distributed Computing
//	(HPDC '97).
//
// The facade re-exports the stable API surface of the internal packages:
//
//   - SPMD worlds and the run-time system interface (internal/rts),
//   - distribution templates (internal/dist),
//   - distributed sequences (internal/dseq),
//   - SPMD objects: export, bind, invoke, futures (internal/core),
//   - the naming domain (internal/naming),
//   - object references (internal/orb).
//
// A minimal SPMD client looks like:
//
//	world := pardis.NewWorld(4)
//	world.Run(func(c *pardis.Comm) error {
//	    obj, err := pardis.SPMDBind(c, "example", nameServerAddr,
//	        pardis.BindOptions{Method: pardis.Multiport})
//	    if err != nil {
//	        return err
//	    }
//	    defer obj.Close()
//	    arr, err := pardis.NewSeq(c, pardis.Float64, 1<<19, pardis.Block{})
//	    if err != nil {
//	        return err
//	    }
//	    _, err = obj.Invoke("diffusion", pardis.ScalarEncoder().Bytes(),
//	        []pardis.DistArg{pardis.InOutSeq(arr)})
//	    return err
//	})
//
// Interface definitions are normally written in IDL and compiled with
// cmd/pardisc, which generates typed stubs and skeletons over this API; see
// examples/diffusion for the complete paper scenario.
package pardis

import (
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dseq"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rts"
)

// SPMD worlds and the run-time system interface.
type (
	// World is a set of SPMD computing threads.
	World = rts.World
	// Comm is one thread's communicator handle.
	Comm = rts.Comm
	// Window is the one-sided run-time system interface.
	Window = rts.Window
)

// NewWorld creates a world of n computing threads.
func NewWorld(n int, opts ...rts.Options) *World { return rts.NewWorld(n, opts...) }

// Distribution templates (paper §2.2).
type (
	// Spec is a distribution law.
	Spec = dist.Spec
	// Block is the default uniform blockwise distribution.
	Block = dist.Block
	// Proportions is the PARDIS::Proportions template.
	Proportions = dist.Proportions
	// Cyclic is the block-cyclic extension template.
	Cyclic = dist.Cyclic
	// Layout is a template applied to a concrete length and thread count.
	Layout = dist.Layout
)

// Distributed sequences.
type (
	// Seq is a distributed sequence of T.
	Seq[T any] = dseq.Seq[T]
	// Codec marshals sequence elements.
	Codec[T any] = dseq.Codec[T]
	// Transferable is the engine-facing view of a distributed sequence.
	Transferable = dseq.Transferable
)

// Element codecs for the IDL basic types.
var (
	Float64 = dseq.Float64
	Float32 = dseq.Float32
	Int32   = dseq.Int32
	Int64   = dseq.Int64
	Octet   = dseq.Octet
	Bool    = dseq.Bool
	String  = dseq.String
)

// NewSeq collectively creates a distributed sequence.
func NewSeq[T any](comm *Comm, codec Codec[T], length int, spec Spec) (*Seq[T], error) {
	return dseq.New(comm, codec, length, spec)
}

// SeqFromLocal is the conversion constructor: each thread adopts its own
// slice without copying.
func SeqFromLocal[T any](comm *Comm, codec Codec[T], local []T) (*Seq[T], error) {
	return dseq.FromLocal(comm, codec, local)
}

// SPMD objects (the paper's primary contribution).
type (
	// Object is a server-side exported SPMD object handle.
	Object = core.Object
	// Operation registers one operation of an SPMD object.
	Operation = core.Operation
	// OpDesc describes an operation's distributed-argument signature.
	OpDesc = core.OpDesc
	// ArgDesc describes one distributed parameter.
	ArgDesc = core.ArgDesc
	// ServerCall is the context of a collective upcall.
	ServerCall = core.ServerCall
	// ExportOptions configure Export.
	ExportOptions = core.ExportOptions
	// Binding is a client-side handle on a bound SPMD object.
	Binding = core.Binding
	// BindOptions configure SPMDBind and Bind.
	BindOptions = core.BindOptions
	// DistArg pairs a sequence with its passing mode for one invocation.
	DistArg = core.DistArg
	// Future is the result of a non-blocking invocation.
	Future = core.Future
	// Method selects the argument transfer method.
	Method = core.Method
	// Timing records an invocation's phase breakdown.
	Timing = core.Timing
)

// Transfer methods (paper §3).
const (
	Centralized = core.Centralized
	Multiport   = core.Multiport
)

// Parameter passing modes.
const (
	In    = core.In
	Out   = core.Out
	InOut = core.InOut
)

// Export collectively registers an SPMD object implementation.
func Export(comm *Comm, opts ExportOptions, operations []Operation) (*Object, error) {
	return core.Export(comm, opts, operations)
}

// SPMDBind is the collective bind (the paper's _spmd_bind).
func SPMDBind(comm *Comm, name, nameServer string, opts ...BindOptions) (*Binding, error) {
	return core.SPMDBind(comm, name, nameServer, opts...)
}

// Bind is the per-thread non-collective bind (the paper's _bind).
func Bind(name, nameServer string, opts ...BindOptions) (*Binding, error) {
	return core.Bind(name, nameServer, opts...)
}

// Argument helpers.
var (
	InSeq    = core.InSeq
	OutSeq   = core.OutSeq
	InOutSeq = core.InOutSeq
)

// ScalarEncoder starts the non-distributed argument payload of an
// invocation.
var ScalarEncoder = core.ScalarEncoder

// ScalarDecoder opens a reply's scalar results.
var ScalarDecoder = core.ScalarDecoder

// ErrStopServing makes a server handler stop the Serve loop.
var ErrStopServing = core.ErrStopServing

// Naming domain and object references.
type (
	// NameServer is a running naming service.
	NameServer = naming.Server
	// Resolver is a client handle on a naming service.
	Resolver = naming.Resolver
	// IOR is an interoperable object reference.
	IOR = orb.IOR
	// UserException is an application-defined exception.
	UserException = orb.UserException
	// SystemException is an infrastructure exception.
	SystemException = orb.SystemException
)

// NewNameServer starts a naming service on addr (port 0 for ephemeral).
func NewNameServer(addr string) (*NameServer, error) { return naming.NewServer(addr) }

// NewResolver builds a resolver over a fresh client engine. Callers that
// need connection reuse across resolvers should use the naming package
// directly.
func NewResolver(client *orb.Client, addr string) *Resolver { return naming.NewResolver(client, addr) }

// ParseIOR parses a stringified object reference.
var ParseIOR = orb.ParseIOR
