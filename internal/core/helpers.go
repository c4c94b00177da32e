package core

import (
	"fmt"

	"repro/internal/dseq"
	"repro/internal/rts"
)

// SeqArgsFloat64 builds an Operation.NewArgs factory for an operation whose
// distributed arguments are all sequences of double (the common case in the
// paper): one empty Block sequence per entry of descs, which New cannot fail
// to make and the object resets to each call's length on the entry's template.
func SeqArgsFloat64(descs []ArgDesc) func(comm *rts.Comm) ([]dseq.Transferable, error) {
	return func(comm *rts.Comm) ([]dseq.Transferable, error) {
		out := make([]dseq.Transferable, len(descs))
		for i := range out {
			out[i], _ = dseq.New(comm, dseq.Float64, 0, nil)
		}
		return out, nil
	}
}

// ArgSeq recovers the concrete sequence type inside a handler:
//
//	arr := core.ArgSeq[float64](call, 0)
//
// It panics on element-type mismatch, which indicates a generated-code bug
// rather than a runtime condition.
func ArgSeq[T any](call *ServerCall, i int) *dseq.Seq[T] {
	s, ok := call.Args[i].(*dseq.Seq[T])
	if !ok {
		panic(fmt.Sprintf("core: argument %d of %s is %T", i, call.Op, call.Args[i]))
	}
	return s
}
