package exp

import "repro/internal/obs"

// Probe collects observability from the simulated experiments: each phase of
// the interpreted invocation is recorded as a span stamped with *virtual*
// time, and per-run traffic counters land in Reg. Because the discrete-event
// simulator is deterministic, two runs of one configuration produce
// byte-identical spans and counts — which is what lets the trace tests
// assert exact sequences with no wall-clock sleeps.
//
// Client threads record under their rank; server threads record the
// server-side phases (recv-xfer, scatter, send-xfer) under theirs. A nil
// Probe, or nil fields, disable the corresponding output.
type Probe struct {
	Rec   *obs.Recorder
	Reg   *obs.Registry
	Trace uint64 // trace id stamped on every span
}

// span records one contiguous phase, start..end in virtual seconds.
func (p *Probe) span(ph obs.Phase, rank int, start, end float64) {
	if p == nil || p.Rec == nil {
		return
	}
	p.Rec.Record(obs.Span{Trace: p.Trace, Phase: ph, Rank: int32(rank),
		Start: int64(start * 1e9), Dur: int64((end - start) * 1e9)})
}

// spanDur is span for phases accumulated piecewise (per-chunk marshalling).
func (p *Probe) spanDur(ph obs.Phase, rank int, start, dur float64) {
	if p == nil || p.Rec == nil {
		return
	}
	p.Rec.Record(obs.Span{Trace: p.Trace, Phase: ph, Rank: int32(rank),
		Start: int64(start * 1e9), Dur: int64(dur * 1e9)})
}

// count adds n to the named counter.
func (p *Probe) count(name string, n uint64) {
	if p == nil || p.Reg == nil {
		return
	}
	p.Reg.Counter(name).Add(n)
}
