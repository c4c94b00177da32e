package main

import (
	"time"

	"repro/internal/core"
)

// phases are the columns of core.Timing, the paper's Tables 1-2 breakdown,
// in the order an invocation passes through them.
var phases = []struct {
	name string
	get  func(*core.Timing) time.Duration
}{
	{"gather", func(t *core.Timing) time.Duration { return t.Gather }},
	{"pack", func(t *core.Timing) time.Duration { return t.Pack }},
	{"sendrecv", func(t *core.Timing) time.Duration { return t.SendRecv }},
	{"scatter", func(t *core.Timing) time.Duration { return t.Scatter }},
	{"unpack", func(t *core.Timing) time.Duration { return t.Unpack }},
	{"barrier", func(t *core.Timing) time.Duration { return t.Barrier }},
}

func toMs(ns int64) float64 { return float64(ns) / 1e6 }

// coreMetrics reduces a traced run's timestamps to the core.* per-layer
// metrics: each is the median over the timed loop's invocations of the
// per-invocation value, which for a Timing column is the largest any client
// rank reported.
func coreMetrics(res *runResult) map[string]float64 {
	tl, n := res.trace, res.n
	m := map[string]float64{}
	col := make([]float64, n)
	overRanks := func(get func(*core.Timing) time.Duration) float64 {
		for i := range col {
			var worst time.Duration
			for r := range tl.client {
				worst = max(worst, get(&tl.client[r].timing[i]))
			}
			col[i] = toMs(int64(worst))
		}
		return median(col)
	}
	total := overRanks(func(t *core.Timing) time.Duration { return t.Total })
	m["core.total_ms"] = total
	covered := 0.0
	for _, p := range phases {
		v := overRanks(p.get)
		m["core."+p.name+"_ms"] = v
		covered += v
	}
	if total > 0 {
		m["core.phase_cover"] = covered / total
	}
	m["core.inv_p90_ms"], m["core.inv_p99_ms"], m["core.inv_max_ms"] = quantile(res.lat, 0.9), quantile(res.lat, 0.99), quantile(res.lat, 1)

	// The legs need the server's k-th upcall to be the client's k-th
	// invocation, which holds as long as no invocation failed before
	// reaching the handler.
	for r := range tl.upcall {
		if len(tl.upcall[r].enter) < tl.first+n {
			logf("traced run: server rank %d logged %d upcalls, want at least %d; legs not reported", r, len(tl.upcall[r].enter), tl.first+n)
			return m
		}
	}
	request, reply, skew := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		var lastEnter, lastLeave int64
		for r := range tl.upcall {
			lastEnter = max(lastEnter, tl.upcall[r].enter[tl.first+i])
			lastLeave = max(lastLeave, tl.upcall[r].exit[tl.first+i])
		}
		firstExit, lastExit := tl.client[0].exit[i], tl.client[0].exit[i]
		for r := range tl.client {
			firstExit, lastExit = min(firstExit, tl.client[r].exit[i]), max(lastExit, tl.client[r].exit[i])
		}
		request[i] = toMs(lastEnter - tl.client[0].enter[i])
		reply[i] = toMs(lastExit - lastLeave)
		skew[i] = float64(lastExit-firstExit) / 1e3
	}
	m["core.request_leg_ms"], m["core.reply_leg_ms"], m["core.rank_skew_us"] = median(request), median(reply), median(skew)
	return m
}

// invocationSpans writes the first spanInvocations invocations of a traced
// run into rec: one invoke span per client rank with its Timing phases as
// children, and one upcall span per server rank under rank 0's invoke.
// Timing gives a phase's length but not when it began, so the phases are
// laid end to end from the invoke's start in their natural order; their
// lengths, and so the invoke's self time (what no phase accounts for), are
// as measured.
func invocationSpans(rec *recorder, res *runResult) {
	tl := res.trace
	for i := 0; i < min(res.n, spanInvocations); i++ {
		root := 0
		for r := range tl.client {
			c := &tl.client[r]
			id := rec.add(span{Trace: i, Name: "invoke", Rank: r, Start: c.enter[i], End: c.exit[i]})
			if r == 0 {
				root = id
			}
			at := c.enter[i]
			for _, p := range phases {
				if d := int64(p.get(&c.timing[i])); d > 0 {
					rec.add(span{Parent: id, Trace: i, Name: p.name, Rank: r, Start: at, End: at + d})
					at += d
				}
			}
		}
		for r := range tl.upcall {
			if u := &tl.upcall[r]; tl.first+i < len(u.enter) {
				rec.add(span{Parent: root, Trace: i, Name: "upcall", Rank: r, Start: u.enter[tl.first+i], End: u.exit[tl.first+i]})
			}
		}
	}
}
