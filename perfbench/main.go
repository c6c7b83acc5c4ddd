// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process — serve-steady, serve-online or train — checks the
// program's outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// process first repeats the untraced measurement, then runs the workload
// again with spans recorded around every call into a layer, and reports
// the per-layer metrics (see METRICS.md). Inputs are generated from -seed.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package:
//
//	bash perfbench/run.sh --workload serve-steady --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// config is one invocation's settings. short shrinks every workload to a
// smoke-test size for the benchmark's own tests.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	short   bool
	// traceDir receives the span file of a traced run ("" = none).
	traceDir string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload pass returns.
type report struct {
	// e2e holds the end-to-end metrics, layer the per-layer ones.
	e2e, layer map[string]metric
	// samples counts the observations behind each metric that is a
	// statistic (a median or a percentile), for the human-readable table.
	samples map[string]int
	// attempted counts the units of work the pass started (arrivals or
	// trained models); failed those that did not complete correctly.
	attempted, failed int
	// mismatches lists every correctness-gate violation.
	mismatches []string
	// fingerprint holds the deterministic outputs — costs, violation
	// counts, build and retrain counts, model hashes — that must be
	// identical across runs at one seed and between traced and untraced
	// passes.
	fingerprint map[string]string
	// heavyHeap marks a pass whose peak live heap exceeded
	// heavyHeapMiB: no µs-scale timing may be reported from it.
	heavyHeap bool
}

func newReport() *report {
	return &report{
		e2e:         map[string]metric{},
		layer:       map[string]metric{},
		samples:     map[string]int{},
		fingerprint: map[string]string{},
	}
}

func (r *report) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name string, v float64, unit string) {
	r.layer[name] = metric{v, unit}
}

// check records a gate violation unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its pass. A pass runs the workload
// once, traced when tr is non-nil.
var workloads = map[string]func(cfg config, tr *tracer) (*report, error){
	"serve-steady": runSteady,
	"serve-online": runOnline,
	"train":        runTrain,
}

// e2eNames are the end-to-end metrics every untraced run prints, in
// BENCHMARK.json order; every workload defines each one (METRICS.md).
var e2eNames = []string{
	"setup_s", "throughput_per_s", "latency_ms", "cost_cents_per_query",
	"success_ratio", "heap_peak_mb",
}

// heavyHeapMiB is the live-heap size above which a process's µs timings
// are not trusted: a large heap makes GC assists and pauses land inside
// short timed calls, which is how an earlier benchmark's training
// workload reported serving latencies that moved 15% between identical
// builds. It lies between serve-steady's retained heap (about 130 MiB),
// whose µs timings are reported, and train's (about 430 MiB), so the check
// is live on train.
const heavyHeapMiB = 256

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-steady, serve-online or train")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 = also run a traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pass, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: ".bench_build/traces"}
	out, err := measure(*name, cfg, pass)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printReport(os.Stdout, *name, cfg, out)
	if !out.Correct {
		return 1
	}
	return 0
}

// result is the final line's content.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	rep *report // the pass whose metrics are reported
}

// measure runs the untraced pass and, when tracing, the traced pass,
// applies the correctness gate, and assembles the result.
func measure(name string, cfg config, pass func(config, *tracer) (*report, error)) (*result, error) {
	rep, err := pass(cfg, nil)
	if err != nil {
		return nil, err
	}
	out := &result{rep: rep, Attempted: rep.attempted, Failed: rep.failed}
	gate(rep)
	mismatches := append(rep.mismatches, checkLayers(name, rep.layer)...)
	metrics := rep.e2e
	if cfg.trace {
		tr := newTracer()
		trep, err := pass(cfg, tr)
		if err != nil {
			return nil, err
		}
		gate(trep)
		mismatches = append(mismatches, trep.mismatches...)
		mismatches = append(mismatches, checkLayers(name, trep.layer)...)
		mismatches = append(mismatches, compareFingerprints(rep.fingerprint, trep.fingerprint)...)
		// Metrics both passes measured come from the untraced one; the
		// traced pass adds what only spans and direct layer calls give.
		for n, m := range rep.layer {
			trep.layer[n] = m
		}
		for n, lm := range layerMetrics {
			if _, ok := trep.layer[n]; !ok {
				trep.setLayer(n, 0, lm.unit)
			}
		}
		// Tracing overhead: how much the traced pass lost on the
		// workload's own throughput metric.
		if u, t := rep.e2e["throughput_per_s"].Value, trep.e2e["throughput_per_s"].Value; u > 0 {
			trep.setLayer("trace.overhead_pct", 100*(u-t)/u, "%")
		}
		if cfg.traceDir != "" {
			path, err := tr.write(cfg.traceDir, name) // one file per workload, the latest run
			if err != nil {
				return nil, err
			}
			fmt.Printf("spans: %d recorded (%d dropped) -> %s\n", len(tr.spans), tr.dropped, path)
		}
		for _, line := range tr.summary() {
			fmt.Println(line)
		}
		metrics = trep.layer
		out.rep = trep
	}
	out.Metrics = metrics
	out.Correct = len(mismatches) == 0
	if !out.Correct {
		// A run whose outputs are wrong has no trustworthy numbers: every
		// unit of work counts as failed and only success_ratio = 0 is
		// reported.
		for _, m := range mismatches {
			fmt.Fprintf(os.Stderr, "perfbench: gate: %s\n", m)
		}
		out.Attempted = max(out.Attempted, 1)
		out.Failed = out.Attempted
		out.Metrics = map[string]metric{"success_ratio": {0, "ratio"}}
	}
	return out, nil
}

// gate applies the checks common to every workload: every end-to-end
// metric present, finite and non-zero; no µs timing from a heavy heap.
func gate(rep *report) {
	for _, n := range e2eNames {
		m, ok := rep.e2e[n]
		rep.check(ok, "end-to-end metric %s missing", n)
		rep.check(!ok || (m.Value > 0 && !math.IsInf(m.Value, 0) && !math.IsNaN(m.Value)),
			"end-to-end metric %s = %v, want a positive finite value", n, m.Value)
	}
	if rep.heavyHeap {
		for _, set := range []map[string]metric{rep.e2e, rep.layer} {
			for n, m := range set {
				rep.check(m.Unit != "us" && m.Unit != "ns",
					"%s (%s) was timed in a process whose live heap exceeded %d MiB", n, m.Unit, heavyHeapMiB)
			}
		}
	}
}

// checkLayers lists every per-layer metric a workload reported that is
// unknown, carries the wrong unit, or belongs to a layer the workload
// does not exercise.
func checkLayers(workload string, layer map[string]metric) []string {
	var out []string
	for n, m := range layer {
		lm, ok := layerMetrics[n]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("per-layer metric %s is not in the metric list", n))
		case m.Unit != lm.unit:
			out = append(out, fmt.Sprintf("per-layer metric %s has unit %s, want %s", n, m.Unit, lm.unit))
		case lm.workloads != "" && !slices.Contains(strings.Fields(lm.workloads), workload):
			out = append(out, fmt.Sprintf("per-layer metric %s reported on %s, which does not exercise its layer", n, workload))
		}
	}
	sort.Strings(out)
	return out
}

// compareFingerprints lists every deterministic output that differs
// between two passes.
func compareFingerprints(a, b map[string]string) []string {
	var out []string
	for k, v := range a {
		if b[k] != v {
			out = append(out, fmt.Sprintf("deterministic output %s differs between passes: %q vs %q", k, v, b[k]))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("deterministic output %s present in one pass only", k))
		}
	}
	sort.Strings(out)
	return out
}

func printMetrics(w *os.File, names []string, ms map[string]metric, samples map[string]int) {
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("  %-34s %16.6g %s", n, m.Value, m.Unit)
		if k := samples[n]; k > 0 {
			line += fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Fprintln(w, line)
	}
}

// printReport writes the human-readable table, the fingerprint line and
// the final JSON line.
func printReport(w *os.File, name string, cfg config, out *result) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v | nproc %d GOMAXPROCS %d %s\n",
		name, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	printMetrics(w, names, out.Metrics, out.rep.samples)
	if !cfg.trace {
		// The per-layer numbers an untraced pass measures anyway, for
		// reading only: the final line carries the end-to-end metrics.
		fmt.Fprintln(w, "detail (untraced):")
		names = names[:0]
		for n := range out.rep.layer {
			names = append(names, n)
		}
		sort.Strings(names)
		printMetrics(w, names, out.rep.layer, out.rep.samples)
	}
	keys := make([]string, 0, len(out.rep.fingerprint))
	for k := range out.rep.fingerprint {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var fp strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&fp, " %s=%s", k, out.rep.fingerprint[k])
	}
	fmt.Fprintf(w, "fingerprint:%s\n", fp.String())
	line, _ := json.Marshal(out)
	fmt.Fprintln(w, string(line))
}
