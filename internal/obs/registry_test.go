package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter not stable across lookups")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if r.Gauge("g") != g {
		t.Fatal("Gauge not stable across lookups")
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must yield nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	h.Done(h.Start())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	r.RegisterPull("k", func(func(string, int64)) {})
	r.UnregisterPull("k")
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(0)
	h.Observe(time.Microsecond)     // 1000 ns → bucket max 1024
	h.Observe(time.Millisecond)     // 1e6 ns → bucket max 2^20
	h.Observe(-time.Second)         // clamped to 0
	h.Observe(365 * 24 * time.Hour) // beyond the last bound → final bucket
	s := h.snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b.N
	}
	if total != 5 {
		t.Fatalf("bucket sum = %d, want 5", total)
	}
	// The micro- and millisecond observations land in the expected
	// power-of-two bounds.
	want := map[int64]uint64{1 << 10: 1, 1 << 20: 1}
	for _, b := range s.Buckets {
		if n, ok := want[b.MaxNS]; ok && b.N != n {
			t.Fatalf("bucket %d = %d, want %d", b.MaxNS, b.N, n)
		}
	}
}

func TestHistogramStartDone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sd")
	st := h.Start()
	if st == 0 {
		t.Fatal("Start on live histogram returned 0")
	}
	h.Done(st)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	h.Done(0) // disabled stamp is a no-op
	if h.Count() != 1 {
		t.Fatalf("count after Done(0) = %d, want 1", h.Count())
	}
}

func TestSnapshotAndPullSumming(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(-1)
	r.Histogram("h").Observe(time.Millisecond)
	// Two sources putting the same name sum, mirroring the per-adapter
	// servers of one SPMD object.
	r.RegisterPull("a", func(put func(string, int64)) { put("srv.dispatched", 3) })
	r.RegisterPull("b", func(put func(string, int64)) { put("srv.dispatched", 4) })
	// Re-registering under the same key replaces, not duplicates.
	r.RegisterPull("b", func(put func(string, int64)) { put("srv.dispatched", 5) })

	s := r.Snapshot()
	if s.Counters["c"] != 2 || s.Gauges["g"] != -1 {
		t.Fatalf("snapshot counters/gauges wrong: %+v", s)
	}
	if s.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot histogram wrong: %+v", s.Histograms["h"])
	}
	if s.Pulled["srv.dispatched"] != 8 {
		t.Fatalf("pulled sum = %d, want 8", s.Pulled["srv.dispatched"])
	}
	r.UnregisterPull("a")
	if got := r.Snapshot().Pulled["srv.dispatched"]; got != 5 {
		t.Fatalf("pulled after unregister = %d, want 5", got)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests").Add(9)
	r.Gauge("depth").Set(3)
	r.Histogram("lat").Observe(2 * time.Millisecond)
	r.RegisterPull("p", func(put func(string, int64)) { put("pool.hits", 11) })
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &s); err != nil {
		t.Fatalf("output not valid JSON: %v\n%s", err, sb.String())
	}
	if s.Counters["requests"] != 9 || s.Gauges["depth"] != 3 || s.Pulled["pool.hits"] != 11 {
		t.Fatalf("JSON round-trip lost values: %+v", s)
	}
	if s.Histograms["lat"].Count != 1 {
		t.Fatalf("JSON round-trip lost histogram: %+v", s.Histograms)
	}
}

func TestHTTPEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()
	ms, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("endpoint body not JSON: %v\n%s", err, body)
	}
	if s.Counters["hits"] != 1 {
		t.Fatalf("endpoint snapshot = %+v", s)
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("shared")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(time.Duration(j))
				r.Gauge("shared").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("shared").Value(); got != 8000 {
		t.Fatalf("gauge = %d, want 8000", got)
	}
	if got := r.Histogram("shared").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// The hot-path contract: once an instrument pointer is in hand, updating it
// never allocates. This is what lets instrumentation sit inside the data
// plane without disturbing the PR 3 allocation budgets.
func TestHotPathInstrumentsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(2) }); n != 0 {
		t.Errorf("Counter ops: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1); g.Add(-1) }); n != 0 {
		t.Errorf("Gauge ops: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(time.Millisecond) }); n != 0 {
		t.Errorf("Histogram.Observe: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Done(h.Start()) }); n != 0 {
		t.Errorf("Histogram.Start/Done: %v allocs/op, want 0", n)
	}
	var nilC *Counter
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilC.Inc(); nilH.Observe(0); nilH.Done(nilH.Start()) }); n != 0 {
		t.Errorf("disabled instruments: %v allocs/op, want 0", n)
	}
}
