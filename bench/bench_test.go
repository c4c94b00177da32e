package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/dseq"
	"repro/internal/rts"
)

func TestQuantile(t *testing.T) {
	for _, tt := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5}, // even sample: mean of the middle pair
		{[]float64{7}, 0.99, 7},
		{[]float64{10, 20, 30, 40, 50}, 0, 10},
		{[]float64{10, 20, 30, 40, 50}, 1, 50},
		{[]float64{10, 20, 30, 40, 50}, 0.9, 46}, // interpolated between 40 and 50
		{nil, 0.5, 0},
	} {
		if got := quantile(sorted(tt.in), tt.q); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tt.in, tt.q, got, tt.want)
		}
	}
	in := []float64{3, 1, 2}
	if median(in); in[0] != 3 {
		t.Error("median reordered its argument")
	}
	if s := summarize([]float64{5, 1, 9}, "ms", 30); s.Value != 5 || s.Min != 1 || s.Max != 9 || s.Samples != 30 || len(s.Runs) != 3 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2: the overlap counts once
		{ID: 4, Parent: 1, Start: 90, End: 130}, // runs past its parent: clipped
		{ID: 5, Parent: 3, Start: 35, End: 45},  // a grandchild takes nothing from span 1
		{ID: 6, Parent: 1, Start: 70, End: 70},  // empty
	}
	selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 30, 3: 20, 4: 40, 5: 10, 6: 0} {
		if got := spans[id-1].Self; got != want {
			t.Errorf("span %d: self time %d, want %d", id, got, want)
		}
	}
}

// TestOracle: the element check must see what it claims to see.
func TestOracle(t *testing.T) {
	world := rts.NewWorld(1)
	defer world.Close()
	data := newRamp(7)
	seq, err := dseq.New(world.Comm(0), dseq.Float64, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq.FillFunc(data.at)
	if err := data.check(seq, 1000, true); err != nil {
		t.Fatalf("intact sequence: %v", err)
	}
	if data.check(seq, 999, false) == nil {
		t.Error("wrong length passed")
	}
	seq.LocalData()[500]++
	if data.check(seq, 1000, true) == nil {
		t.Error("a corrupt middle element passed the full check")
	}
	if err := data.check(seq, 1000, false); err != nil {
		t.Errorf("the O(1) check looks at the ends only: %v", err)
	}
	seq.LocalData()[999]++
	if data.check(seq, 1000, false) == nil {
		t.Error("a corrupt last element passed the O(1) check")
	}
	if newRamp(7) != data || newRamp(8) == data {
		t.Error("the ramp must be a function of the seed")
	}
}

// TestSpecMatchesCommand: BENCHMARK.json and the command must name the same
// workloads and metrics, with the same units, in names the gate accepts.
func TestSpecMatchesCommand(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, inSpec []specMetric, inCommand map[string]string) {
		for _, m := range inSpec {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q (unit %q): bad or repeated name or unit", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, m.Name, m.Better)
			}
			if u, ok := inCommand[m.Name]; !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but the command does not produce it", kind, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q in the command", kind, m.Name, m.Unit, u)
			}
			delete(inCommand, m.Name)
		}
		for n := range inCommand {
			t.Errorf("%s metric %s is produced by the command but missing from BENCHMARK.json", kind, n)
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, d := range endToEndDefs {
		e2e[d.name] = d.unit
	}
	for _, d := range perLayer {
		layers[d.name] = d.unit
	}
	compare("end-to-end", spec.EndToEnd, e2e)
	compare("per-layer", spec.PerLayer, layers)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the command (or a bad name or why)", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload for 200 ms and the traced pass with its
// ladder for one, and checks the report is complete and nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real stack over loopback TCP")
	}
	o := options{seed: 3, seconds: 0.2, runs: 1, trace: 0, out: t.TempDir()}
	rep, err := suite(workloads, o)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := workloadByName("small_call_central")
	o.trace = 1
	layered, err := suite([]workload{small}, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(layered.Workloads[0].Spans); err != nil {
		t.Errorf("span file: %v", err)
	}
	for _, wr := range append(rep.Workloads, layered.Workloads...) {
		if wr.Failed != 0 || wr.Attempted < 3 {
			t.Errorf("%s: %d of %d invocations failed", wr.Name, wr.Failed, wr.Attempted)
		}
		metrics, want, trace := wr.EndToEnd, len(endToEndDefs), 0
		if wr.PerLayer != nil {
			metrics, want, trace = wr.PerLayer, len(perLayer), 1
		}
		if len(metrics) != want {
			t.Errorf("%s: %d metrics reported, want %d", wr.Name, len(metrics), want)
		}
		for name, s := range metrics {
			if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || (wr.PerLayer == nil && s.Value <= 0) {
				t.Errorf("%s: %s = %v", wr.Name, name, s.Value)
			}
		}
		// The gate's line: exactly these keys, every metric with value and unit.
		buf, err := json.Marshal(wr.gateLine(trace))
		if err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(buf, &line); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := line[k]; !ok {
				t.Errorf("%s: gate line lacks %q", wr.Name, k)
			}
		}
		var inLine map[string]struct{ Unit string }
		if err := json.Unmarshal(line["metrics"], &inLine); err != nil || len(line) != 4 || len(inLine) != want {
			t.Errorf("%s: gate line has %d keys and %d metrics, want 4 and %d (%v)", wr.Name, len(line), len(inLine), want, err)
		}
	}
}
