package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"text/tabwriter"
)

// goodput is the rate at which argument payload reaches the other side,
// the quantity of the paper's Figure 4, in MB/s (10^6 bytes).
func goodput(w workload, r *runResult) float64 { return r.invPerS * float64(w.elems*8) / 1e6 }

// metricDef names a metric and its unit; get reads it from one untraced
// run and is nil for metrics the ladder or the traced run produce. A
// perSetup metric has a value for every set-up made, the others one for
// every run with a timed loop.
type metricDef struct {
	name, unit string
	get        func(workload, *runResult) float64
	perSetup   bool
}

// endToEndDefs are the gated metrics, measured with all tracing off.
// BENCHMARK.json lists the same names with their bounds. They are the ones
// this kind of machine can hold steady: what an invocation costs in time
// is in timingDefs.
var endToEndDefs = []metricDef{
	{"setup_s", "s", func(_ workload, r *runResult) float64 { return r.setupYards * yardNominal.Seconds() }, true},
	{"allocs_per_inv", "1", func(_ workload, r *runResult) float64 { return r.allocsPerInv }, false},
	{"alloc_KiB_per_inv", "KiB", func(_ workload, r *runResult) float64 { return r.allocKiBPerInv }, false},
}

// timingDefs are what a set-up and an invocation cost in wall-clock and CPU
// time, measured with all tracing off. They are what a user pays, and they are
// not gated: a shared 2-vCPU box changes speed by 20-45 % for minutes at a
// time, on unchanged code, which no bound the gate allows covers (see
// README.md). They are reported as the metrics of the whole stack beside
// the other layers', and with their run-to-run spread in the suite report.
var timingDefs = []metricDef{
	{"stack.setup_wall_s", "s", func(_ workload, r *runResult) float64 { return r.setupS }, true},
	{"stack.inv_p50_ms", "ms", func(_ workload, r *runResult) float64 { return r.p50Ms }, false},
	{"stack.inv_per_s", "1/s", func(_ workload, r *runResult) float64 { return r.invPerS }, false},
	{"stack.goodput_MBps", "MB/s", func(w workload, r *runResult) float64 { return goodput(w, r) }, false},
	{"stack.cpu_ms_per_inv", "ms", func(_ workload, r *runResult) float64 { return r.cpuMsPerInv }, false},
}

// perLayer are the metrics of single layers, from the traced pass and the
// ladder, in report order, after the whole stack's timings.
var perLayer = slices.Concat(timingDefs, []metricDef{
	{name: "cdr.encode_MBps", unit: "MB/s"}, {name: "cdr.decode_MBps", unit: "MB/s"}, {name: "cdr.allocs_per_op", unit: "1"},
	{name: "zcodec.encode_MBps", unit: "MB/s"}, {name: "zcodec.decode_MBps", unit: "MB/s"}, {name: "zcodec.ratio", unit: "1"},
	{name: "dist.plan_us", unit: "us"}, {name: "dist.plan_allocs", unit: "1"},
	{name: "rts.bcast1_us", unit: "us"}, {name: "rts.gather_chunk_us", unit: "us"}, {name: "rts.barrier_us", unit: "us"}, {name: "rts.allocs_per_coll", unit: "1"},
	{name: "dseq.gather_marshal_MBps", unit: "MB/s"}, {name: "dseq.scatter_unmarshal_MBps", unit: "MB/s"},
	{name: "dseq.marshal_range_MBps", unit: "MB/s"}, {name: "dseq.unmarshal_range_MBps", unit: "MB/s"},
	{name: "dseq.gather_marshal_z_MBps", unit: "MB/s"}, {name: "dseq.allocs_per_chunk", unit: "1"},
	{name: "wire.encode_request_ns", unit: "ns"}, {name: "wire.decode_request_ns", unit: "ns"}, {name: "wire.encode_data_ns", unit: "ns"},
	{name: "transport.data_MBps", unit: "MB/s"}, {name: "transport.rtt_us", unit: "us"}, {name: "transport.allocs_per_msg", unit: "1"}, {name: "transport.pool_outstanding", unit: "1"},
	{name: "orb.null_rtt_us", unit: "us"}, {name: "orb.bulk_reply_MBps", unit: "MB/s"}, {name: "orb.allocs_per_call", unit: "1"}, {name: "orb.shed_total", unit: "1"},
	{name: "naming.resolve_us", unit: "us"},
	{name: "core.total_ms", unit: "ms"}, {name: "core.gather_ms", unit: "ms"}, {name: "core.pack_ms", unit: "ms"}, {name: "core.sendrecv_ms", unit: "ms"},
	{name: "core.scatter_ms", unit: "ms"}, {name: "core.unpack_ms", unit: "ms"}, {name: "core.barrier_ms", unit: "ms"}, {name: "core.phase_cover", unit: "1"},
	{name: "core.request_leg_ms", unit: "ms"}, {name: "core.reply_leg_ms", unit: "ms"}, {name: "core.rank_skew_us", unit: "us"},
	{name: "core.inv_p90_ms", unit: "ms"}, {name: "core.inv_p99_ms", unit: "ms"}, {name: "core.inv_max_ms", unit: "ms"}, {name: "core.efficiency", unit: "1"},
	{name: "obs.trace_overhead_pct", unit: "%"}, {name: "obs.spans_per_inv", unit: "1"},
	{name: "proc.cores_busy", unit: "1"}, {name: "proc.gc_cycles", unit: "1"}, {name: "proc.heap_sys_MiB", unit: "MiB"}, {name: "proc.goroutines_peak", unit: "1"},
	{name: "fail_ratio", unit: "1"},
})

// fingerprint says what machine, build and settings a report came from.
type fingerprint struct {
	CPU         string  `json:"cpu"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go"`
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	Runs        int     `json:"runs"`
	WarmS       float64 `json:"warm_s"`
	WindowS     float64 `json:"window_s"`
	RungS       float64 `json:"rung_s"`
	ClientRanks int     `json:"client_ranks"`
	ServerRanks int     `json:"server_ranks"`
}

func newFingerprint(o options) fingerprint {
	warm, window, rungTime := o.windows()
	f := fingerprint{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown",
		Seed: o.seed, Runs: o.runs, WarmS: warm.Seconds(), WindowS: window.Seconds(), RungS: rungTime.Seconds(),
		ClientRanks: clientRanks, ServerRanks: serverRanks,
	}
	if file, err := os.Open("/proc/cpuinfo"); err == nil {
		defer file.Close()
		for sc := bufio.NewScanner(file); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The commit is known only when the binary was built inside a git
	// checkout; the gate's checkout is not one.
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				f.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		f.Commit += dirty
	}
	return f
}

// report is what one invocation of the command measured.
type report struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Workloads   []*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	Timing    map[string]summary `json:"timing,omitempty"` // timingDefs over the same runs as EndToEnd
	PerLayer  map[string]summary `json:"per_layer,omitempty"`
	Spans     string             `json:"spans,omitempty"`
}

// endToEnd reduces the workload's untraced runs: every metric is the
// median over the runs, with min and max beside it. A perSetup metric is
// reduced over setups, which holds the runs and the set-up-only cycles.
func (wr *workloadReport) endToEnd(w workload, runs, setups []runResult) {
	timed := 0
	for i := range setups {
		wr.Attempted += setups[i].attempted
		wr.Failed += setups[i].failed
		timed += setups[i].n
	}
	reduce := func(defs []metricDef) map[string]summary {
		out := map[string]summary{}
		for _, def := range defs {
			from, samples := runs, timed // invocations the runs' values were reduced from
			if def.perSetup {
				from, samples = setups, len(setups)
			}
			perRun := make([]float64, len(from))
			for i := range from {
				perRun[i] = def.get(w, &from[i])
			}
			out[def.name] = summarize(perRun, def.unit, samples)
		}
		return out
	}
	wr.EndToEnd, wr.Timing = reduce(endToEndDefs), reduce(timingDefs)
}

// gateLine is the last line of standard output when one workload was run:
// the end-to-end metrics for trace 0, the per-layer ones for trace 1.
func (wr *workloadReport) gateLine(trace int) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	from := wr.EndToEnd
	if trace == 1 {
		from = wr.PerLayer
	}
	metrics := map[string]value{}
	for name, s := range from {
		metrics[name] = value{s.Value, s.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics}
}

func (r *report) failed() (n int) {
	for _, wr := range r.Workloads {
		n += wr.Failed
	}
	return n
}

// table prints the report for a reader: one row per metric, one column per
// workload; what the end-to-end runs measured as median [min..max], so the
// stack's timings appear twice when both passes ran: over those runs, and
// from the traced pass's one untraced run.
func (r *report) table(w io.Writer) {
	f := r.Fingerprint
	fmt.Fprintf(w, "%s, %d cpus, GOMAXPROCS %d, %s, commit %s\n", f.CPU, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.Commit)
	fmt.Fprintf(w, "seed %d, %d runs per workload of %.2fs after %.2fs warm-up, %d client and %d server ranks, closed loop\n",
		f.Seed, f.Runs, f.WindowS, f.WarmS, f.ClientRanks, f.ServerRanks)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	row := func(cells ...string) { fmt.Fprintln(tw, strings.Join(cells, "\t")) }
	head := []string{"metric", "unit"}
	for _, wr := range r.Workloads {
		head = append(head, wr.Name)
	}
	row(head...)
	section := func(defs []metricDef, pick func(*workloadReport) map[string]summary, spread bool) {
		for _, def := range defs {
			cells := []string{def.name, def.unit}
			for _, wr := range r.Workloads {
				s, ok := pick(wr)[def.name]
				if !ok {
					return
				}
				cell := fmt.Sprintf("%.4g", s.Value)
				if spread {
					cell += fmt.Sprintf(" [%.4g..%.4g] n=%d", s.Min, s.Max, s.Samples)
				}
				cells = append(cells, cell)
			}
			row(cells...)
		}
	}
	section(endToEndDefs, func(wr *workloadReport) map[string]summary { return wr.EndToEnd }, true)
	section(timingDefs, func(wr *workloadReport) map[string]summary { return wr.Timing }, true)
	section(perLayer, func(wr *workloadReport) map[string]summary { return wr.PerLayer }, false)
	cells := []string{"failed/attempted", "1"}
	for _, wr := range r.Workloads {
		cells = append(cells, fmt.Sprintf("%d/%d", wr.Failed, wr.Attempted))
	}
	row(cells...)
	tw.Flush()
}

// spec is BENCHMARK.json, the one place bounds are recorded.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
