// Package rts implements the generic run-time system interface that PARDIS
// uses to interact with the computing threads of a parallel application.
//
// The paper (§2.3) specifies a run-time system interface "encompassing the
// functionality of message-passing libraries", tested against MPI and Tulip.
// This package provides that interface for Go: an SPMD World of ranks, each
// executing the same function on its own goroutine, exchanging tagged
// point-to-point messages (Send, Recv) and participating in the collective
// operations the engine and the distributed sequences run (Barrier, Bcast,
// Gather, Scatter, Forward, Allgather, Allreduce, Alltoall) on communicators
// duplicated with Dup.
//
// Semantics follow MPI where applicable:
//
//   - Point-to-point messages between a (sender, receiver, context) triple
//     are non-overtaking: two messages that match the same receive are
//     received in the order they were sent.
//   - Receives match on (source, tag) where either may be a wildcard
//     (AnySource, AnyTag).
//   - Collective operations must be called by all ranks of a communicator in
//     the same order.
//   - Comm.Dup creates a new communication context so that independent
//     layers (for example the non-blocking invocations outstanding on two
//     PARDIS bindings) cannot intercept each other's traffic.
package rts
