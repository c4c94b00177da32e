// Command bench is the repository's benchmark: five SPMD-invocation
// workloads on the real stack over loopback TCP, three gated end-to-end
// metrics with the failure count beside them, the stack's timings, a ladder
// that runs each layer alone, and a traced pass. See README.md in this
// directory.
//
// The gate runs it one workload at a time, through run.sh:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload it runs
// every workload, runs interleaved, and prints the whole report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/transport"
)

// options are the command's flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	runs      int
	trace     int
	out       string
	selfcheck bool
}

// extraSetups is how many set-up-only cycles precede each run.
const extraSetups = 9

// windows splits the measuring budget: every run of a workload gets an
// equal share as its timed window, warms up for at most a second before
// it, and a ladder rung runs for at most half a second.
func (o options) windows() (warm, window, rungTime time.Duration) {
	window = time.Duration(o.seconds / float64(o.runs) * float64(time.Second))
	return min(time.Second, window/2), window, min(500*time.Millisecond, window/8)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...) }

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end standard output with the gate's result line (default: every workload)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the argument data")
	flag.Float64Var(&o.seconds, "seconds", 18, "measuring time per workload, split evenly over its runs")
	flag.IntVar(&o.runs, "runs", 3, "runs per workload, each on fresh worlds; a metric's value is their median")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end runs only; 1: traced pass and layer ladder only; default both")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for spans-<workload>.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end suite twice and fail if the second set is outside BENCHMARK.json's bounds of the first")
	flag.Parse()
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(o options, stdout, stderr io.Writer) error {
	ws := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		ws = []workload{w}
	}
	if o.runs < 1 || o.seconds <= 0 || flag.NArg() > 0 {
		return errors.New("need -runs ≥ 1, -seconds > 0 and no positional arguments")
	}
	if o.selfcheck {
		return selfcheck(ws, o, stderr)
	}
	rep, err := suite(ws, o)
	if err != nil {
		return err
	}
	rep.table(stderr)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if o.workload != "" {
		if err := enc.Encode(rep.Workloads[0].gateLine(o.trace)); err != nil {
			return err
		}
	}
	if failed := rep.failed(); failed > 0 {
		return fmt.Errorf("%d invocations failed", failed)
	}
	return nil
}

// suite measures ws as o says and builds the report.
func suite(ws []workload, o options) (*report, error) {
	warm, window, _ := o.windows()
	rep := &report{Fingerprint: newFingerprint(o)}
	for _, w := range ws {
		rep.Workloads = append(rep.Workloads, &workloadReport{Name: w.name, Why: w.why})
	}
	if o.trace != 1 {
		// Runs are interleaved round-robin across the workloads, so drift of
		// the machine over the suite hits all of them alike.
		results, setups := make([][]runResult, len(ws)), make([][]runResult, len(ws))
		for r := 0; r < o.runs; r++ {
			for i, w := range ws {
				// Set-up takes milliseconds and its time varies by half from
				// one to the next, so each run is preceded by set-ups that are
				// torn down at once (runs with no window): setup_s is the
				// median of them all.
				for k := extraSetups; k >= 0; k-- {
					cfg := runConfig{seed: o.seed, warm: warm}
					if k == 0 {
						cfg.window = window
					}
					res, err := runOnce(w, cfg, nil)
					if err != nil {
						return nil, err
					}
					setups[i] = append(setups[i], res)
					if k == 0 {
						results[i] = append(results[i], res)
					}
				}
			}
		}
		for i, w := range ws {
			rep.Workloads[i].endToEnd(w, results[i], setups[i])
		}
	}
	if o.trace != 0 {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		for i, w := range ws {
			if err := tracedPass(w, o, rep.Workloads[i]); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// tracedPass produces w's per-layer metrics: an untraced and a traced run
// back to back, whose difference is what tracing costs, then the ladder.
// The harness's spans of all three go to spans-<workload>.json.
func tracedPass(w workload, o options, wr *workloadReport) error {
	warm, window, rungTime := o.windows()
	rec := newRecorder()
	baseGoroutines, basePool := runtime.NumGoroutine(), transport.PoolOutstanding()
	cfg := runConfig{seed: o.seed, warm: warm, window: window}
	plain, err := runOnce(w, cfg, nil)
	if err != nil {
		return err
	}
	cfg.traced = true
	traced, err := runOnce(w, cfg, rec)
	if err != nil {
		return err
	}
	m, err := ladder(w, newRamp(o.seed), rungTime, rec)
	if err != nil {
		return err
	}
	for k, v := range coreMetrics(&traced) {
		m[k] = v
	}
	invocationSpans(rec, &traced)
	wr.Spans = filepath.Join(o.out, "spans-"+w.name+".json")
	if err := rec.write(wr.Spans); err != nil {
		return err
	}

	for _, def := range timingDefs {
		m[def.name] = def.get(w, &plain)
	}
	m["core.efficiency"] = goodput(w, &plain) / m["transport.data_MBps"]
	m["obs.trace_overhead_pct"] = (traced.p50Ms - plain.p50Ms) / plain.p50Ms * 100
	m["obs.spans_per_inv"] = float64(traced.trace.programSpans) / float64(traced.n)
	m["proc.cores_busy"] = traced.cpuMsPerInv * traced.invPerS / 1000
	m["proc.gc_cycles"] = float64(traced.gcCycles)
	m["proc.heap_sys_MiB"] = traced.heapSysMiB
	m["proc.goroutines_peak"] = float64(traced.trace.goroutinesPeak)
	wr.Attempted += plain.attempted + traced.attempted
	wr.Failed += plain.failed + traced.failed
	// The ledger once more, over the whole pass: the ladder's connections
	// and worlds must be gone too.
	g, pool := ledger(baseGoroutines, basePool)
	if m["transport.pool_outstanding"] = float64(pool); g > 0 || pool != 0 {
		logf("%s: ledger unbalanced after the traced pass: %d goroutines over base, %d pooled frames outstanding", w.name, g, pool)
		wr.Failed = wr.Attempted
	}
	m["fail_ratio"] = float64(wr.Failed) / float64(wr.Attempted)
	wr.PerLayer = map[string]summary{}
	for _, def := range perLayer {
		v, ok := m[def.name]
		if !ok {
			return fmt.Errorf("%s: per-layer metric %s was not measured", w.name, def.name)
		}
		wr.PerLayer[def.name] = summary{Value: v, Min: v, Max: v, Unit: def.unit, Samples: 1}
	}
	return nil
}

// selfcheck is the benchmark's proof that its bounds are wider than its
// noise: two end-to-end suites back to back on the same code must agree
// within the bounds BENCHMARK.json declares.
func selfcheck(ws []workload, o options, stderr io.Writer) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	o.trace = 0
	var sets [2]*report
	for i := range sets {
		if sets[i], err = suite(ws, o); err != nil {
			return err
		}
		sets[i].table(stderr)
		if failed := sets[i].failed(); failed > 0 {
			return fmt.Errorf("%d invocations failed", failed)
		}
	}
	outside := 0
	for i, wr := range sets[0].Workloads {
		for _, def := range spec.EndToEnd {
			first, second := wr.EndToEnd[def.Name].Value, sets[1].Workloads[i].EndToEnd[def.Name].Value
			worse := (second - first) / first
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > def.Bound {
				verdict = "OUTSIDE BOUND"
				outside++
			}
			fmt.Fprintf(stderr, "selfcheck %-20s %-18s first %12.4f second %12.4f worse by %+6.2f%% (bound %4.1f%%) %s\n",
				wr.Name, def.Name, first, second, worse*100, def.Bound*100, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("selfcheck: %d metrics moved by more than their bound on unchanged code", outside)
	}
	return nil
}
