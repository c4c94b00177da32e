// Package obs is the PARDIS observability layer: a zero-dependency metrics
// registry (atomic counters, gauges, fixed-bucket latency histograms) and a
// per-invocation trace-span recorder.
//
// The paper evaluates transfer methods purely by end-to-end timing; this
// package provides the mechanism-level instruments — which phase of an
// invocation (bind, header delivery, gather/scatter, collective upcall,
// reply) costs what, and which counters moved when a fault fired — that make
// those comparisons credible and the robustness layer operable.
//
// Design constraints, in order:
//
//   - Hot-path operations (Counter.Inc, Gauge.Set, Histogram.Observe,
//     Recorder.Record) are allocation-free and safe on nil receivers, so
//     instrumentation can be left in place unconditionally and costs a nil
//     check when disabled.
//   - Collection is pull-based: existing sources (orb.Server.Stats, the
//     transport frame pool, breaker states) are read at Snapshot time, never
//     on the hot path.
//   - Timestamps are explicit int64 nanoseconds supplied by the caller, so
//     the deterministic netsim clock can drive the recorder in tests exactly
//     like the wall clock drives it in production.
package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is ready
// to use; all methods are no-ops on a nil receiver.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (queue depth, in-flight requests). The
// zero value is ready to use; all methods are no-ops on a nil receiver.
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of fixed histogram buckets. Bucket i counts
// observations whose nanosecond value has bit length i, i.e. bucket i covers
// [2^(i-1), 2^i) ns; the last bucket absorbs everything from ~9 minutes up.
const histBuckets = 40

// Histogram is a fixed-bucket latency histogram over power-of-two nanosecond
// boundaries. Observe is lock-free and allocation-free; the bucket layout is
// fixed at compile time so there is nothing to configure or grow. The zero
// value is ready to use; all methods are no-ops on a nil receiver.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

func histBucket(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[histBucket(ns)].Add(1)
}

// Start returns a wall-clock start stamp for a later Done, or 0 when the
// histogram is nil so disabled call sites skip the clock read entirely.
func (h *Histogram) Start() int64 {
	if h == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// Done observes the time elapsed since a Start stamp; a zero stamp (disabled
// histogram) is a no-op.
func (h *Histogram) Done(start int64) {
	if h == nil || start == 0 {
		return
	}
	h.Observe(time.Duration(time.Now().UnixNano() - start))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed durations
// from the power-of-two buckets. The estimate is the exclusive upper bound of
// the bucket in which the q-th observation falls, so it overshoots by at most
// 2x — the right direction for latency SLO assertions ("p99 below X" proven
// with the conservative bound). A nil or empty histogram reports 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based; ceil(q*total) without FP edge
	// trouble at q=1.
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return time.Duration(int64(1) << i)
		}
	}
	return time.Duration(int64(1) << (histBuckets - 1))
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	SumNS int64  `json:"sum_ns"`
	// Buckets lists only the occupied buckets, in increasing upper bound.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one occupied histogram bucket: N observations below MaxNS.
type Bucket struct {
	MaxNS int64  `json:"max_ns"` // exclusive upper bound, 2^i ns
	N     uint64 `json:"n"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), SumNS: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{MaxNS: 1 << i, N: n})
		}
	}
	return s
}

// PullFunc contributes externally owned values to a snapshot at collection
// time. Implementations call put once per named value; values put under the
// same name (e.g. the per-adapter servers of one SPMD object) are summed.
type PullFunc func(put func(name string, v int64))

// Registry is a namespace of metrics. Instrument getters (Counter, Gauge,
// Histogram) are get-or-create and return stable pointers: hot paths hold
// the pointer and never touch the registry again. A nil *Registry is valid
// everywhere and yields nil instruments, so "metrics disabled" needs no
// branches at wiring sites.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	pulls    map[string]PullFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		pulls:    make(map[string]PullFunc),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterPull installs (or replaces) the pull source stored under key. The
// key exists only to make registration idempotent — several servers sharing
// a registry each register under their own key, while process-wide sources
// (like the transport frame pool) use a fixed key so they are collected once
// no matter how many components register them.
func (r *Registry) RegisterPull(key string, f PullFunc) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pulls[key] = f
	r.mu.Unlock()
}

// UnregisterPull removes the pull source stored under key.
func (r *Registry) UnregisterPull(key string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.pulls, key)
	r.mu.Unlock()
}

// Snapshot is a point-in-time copy of every instrument in a registry.
// Pulled values appear in Pulled, summed per name across sources.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Pulled     map[string]int64             `json:"pulled,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot collects all instruments and pull sources. It is intended for
// tests and endpoints, not hot paths.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Pulled:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	pulls := make([]PullFunc, 0, len(r.pulls))
	for _, f := range r.pulls {
		pulls = append(pulls, f)
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	r.mu.Unlock()
	// Pull sources run outside the registry lock: they may call back into
	// arbitrary components (server stats, pools) that must not nest under it.
	for _, f := range pulls {
		f(func(name string, v int64) { s.Pulled[name] += v })
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON (expvar-style:
// one self-describing document, stable key order).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
