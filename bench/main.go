// Command bench is the repository's end-to-end benchmark. It drives the
// simulator through the public apt facade and the live scheduler both
// in-process and through the aptserve binary over loopback, times every
// layer from outside the calls, checks the outputs, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with bench/run.sh, which also
// builds aptserve:
//
//	bash bench/run.sh                                  # all four workloads
//	bash bench/run.sh -workload scale-10k -seed 3      # one workload
//	bash bench/run.sh -workload live-mix -trace 1      # per-layer metrics
//
// Without -trace the metrics are the end-to-end ones; with -trace 1 the
// run measures an untraced half and a traced half, prints the per-layer
// metrics and the tracing overhead, and writes the spans to -trace-out.
// See bench/README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (see README for the per-workload definitions).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
}

// perLayer are the traced run's metrics. A workload that bypasses a layer
// reports 0 for it; none of them is a time, so a bypassed layer never
// reads as a constant time.
var perLayer = []metricDef{
	{"go.gc_cycles", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"proc.rss_peak_mb", "MB"},
	{"trace.overhead_pct", "%"},

	{"sim.prepare_costs_share", "%"},
	{"policy.prepare_share", "%"},
	{"policy.select_share", "%"},
	{"sim.engine_self_share", "%"},
	{"sim.validate_share", "%"},
	{"apt.facade_self_share", "%"},
	{"policy.select_calls_per_kernel", "count"},
	{"policy.select_share.apt", "%"},
	{"policy.prepare_share.heft", "%"},
	{"apt.batch_pool_speedup", "x"},

	{"online.alt_share", "%"},
	{"online.queue_wait_share", "%"},
	{"online.backlog_max", "count"},
	{"live.max_rate_within_slo", "1/s"},
	{"online.alt_share.r120", "%"},
	{"online.alt_share.r200", "%"},
	{"online.alt_share.r300", "%"},
	{"online.backlog_max.r120", "count"},
	{"online.backlog_max.r200", "count"},
	{"online.backlog_max.r300", "count"},
	{"live.slo_miss_pct.r120", "%"},
	{"live.slo_miss_pct.r200", "%"},
	{"live.slo_miss_pct.r300", "%"},
	{"gen.late_over_1ms_pct", "%"},
	{"http.server_overhead_share", "%"},
	{"telemetry.scrape_share", "%"},
}

// workloads in the order a full run executes them.
var workloads = []struct {
	name string
	run  func(*env, *outcome) error
}{
	{"paper-sweep", runPaperSweep},
	{"scale-10k", runScale},
	{"live-mix", runLiveMix},
	{"http-submit", runHTTPSubmit},
}

// A run sets its workload up setupMinRepeats times, and more until the
// repetitions add up to env.setupTotal; setup_s is their median. Cheap
// set-ups are repeated more, so their median is not one scheduler hiccup.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 50
)

// env is one invocation's settings.
type env struct {
	root     string
	aptserve string
	seed     int64
	seconds  float64 // measured seconds; a traced run splits them in two
	trace    bool
	// scaleKernels is scale-10k's graph size and setupTotal the set-up
	// time a run spends at least; tests shrink both.
	scaleKernels int
	setupTotal   time.Duration
}

// traceSlices is how many untraced and how many traced slices a traced
// run of a closed-loop workload alternates, so that drift in the machine's
// speed during the run falls on both sides of trace.overhead_pct alike.
const traceSlices = 3

// measurePasses measures a closed-loop workload: one pass over the whole
// measured time into u, or in a traced run traceSlices untraced slices
// into u alternating with as many traced ones into t.
func measurePasses[P interface{ merge(P) }](e *env, o *outcome, u, t P, pass func(time.Duration) (P, error)) error {
	if !e.trace {
		p, err := pass(e.measure())
		if err != nil {
			return err
		}
		u.merge(p)
		return nil
	}
	tr := o.tr
	defer func() { o.tr = tr }()
	for i := range 2 * traceSlices {
		o.tr = nil
		dst := u
		if i%2 == 1 {
			o.tr, dst = tr, t
		}
		p, err := pass(e.measure() / traceSlices)
		if err != nil {
			return err
		}
		dst.merge(p)
	}
	return nil
}

// measure returns the measured time of each side of the run: all of it,
// or half of it for each of a traced run's untraced and traced sides.
func (e *env) measure() time.Duration {
	s := e.seconds
	if e.trace {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// maxProblems bounds the check violations a run prints; the rest are
// only counted.
const maxProblems = 20

// outcome collects what a workload run measured and checked.
type outcome struct {
	attempted, failed int64
	problems          []string
	notes             []string // printed as comment lines
	rows              []row
	metrics           map[string]float64
	setup             []float64 // seconds per setup repetition
	measured          float64   // seconds spent in measured passes
	tr                *tracer
}

// row is one printed number.
type row struct {
	name  string
	value float64
	unit  string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail counts n failed operations and records why.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// row prints a number that is not one of the JSON metrics.
func (o *outcome) row(name string, v float64, unit string) {
	o.rows = append(o.rows, row{name, v, unit})
}

// metric records one of the JSON metrics and prints it.
func (o *outcome) metric(name string, v float64) {
	o.metrics[name] = v
	o.row(name, v, unitOf(name))
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the metrics of the run's mode. Every end-to-end metric
// must have been measured; a per-layer metric the workload never set
// belongs to a layer it bypasses and reads 0.
func (o *outcome) result(trace bool, prefix string) result {
	defs, required := endToEnd, true
	if trace {
		defs, required = perLayer, false
	}
	r := result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && required {
			o.fail(0, "metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.fail(0, "metric %s is not finite: %v", d.name, v)
			v = 0
		}
		r.Metrics[prefix+d.name] = metricValue{v, d.unit}
	}
	r.Correct = len(o.problems) == 0 && o.failed == 0
	return r
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	e := &env{scaleKernels: 10_000, setupTotal: time.Second}
	var traceFlag int
	var only, traceOut string
	fs.StringVar(&e.root, "root", ".", "repository root")
	fs.StringVar(&e.aptserve, "aptserve", "", "aptserve binary for http-submit (default <root>/.bench_build/bin/aptserve)")
	fs.StringVar(&only, "workload", "", "run one workload: paper-sweep, scale-10k, live-mix or http-submit (default all)")
	fs.Int64Var(&e.seed, "seed", defaultSeed, "seed every workload's inputs are generated from")
	fs.Float64Var(&e.seconds, "seconds", 30, "measured seconds per workload")
	fs.IntVar(&traceFlag, "trace", 0, "1: measure an untraced and a traced half and print per-layer metrics")
	fs.StringVar(&traceOut, "trace-out", "", "span file of a traced run (default <root>/.bench_build/trace-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || !(e.seconds > 0) {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE]")
		return 2
	}
	e.trace = traceFlag == 1
	if e.aptserve == "" {
		e.aptserve = filepath.Join(e.root, ".bench_build", "bin", "aptserve")
	}
	if _, err := os.Stat(filepath.Join(e.root, "go.mod")); err != nil {
		fmt.Fprintf(stderr, "bench: %s is not the repository root: %v\n", e.root, err)
		return 2
	}
	return execute(e, only, traceOut, stdout, stderr)
}

// execute runs the selected workloads (all when only is empty), prints
// every number and the result line, and returns the exit code.
func execute(e *env, only, traceOut string, stdout, stderr io.Writer) int {
	selected := workloads
	if only != "" {
		selected = selected[:0:0]
		for _, w := range workloads {
			if w.name == only {
				selected = append(selected, w)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", only)
			return 2
		}
	}

	printHeader(stdout, e)
	combined := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		o := newOutcome()
		if e.trace {
			o.tr = newTracer()
		}
		start := time.Now()
		if err := w.run(e, o); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		o.metric("setup_s", median(o.setup))
		if _, ok := o.metrics["proc.rss_peak_mb"]; !ok {
			// The system ran in this process.
			rss, err := peakRSSMB(0)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			o.metric("proc.rss_peak_mb", rss)
		}
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "/"
		}
		r := o.result(e.trace, prefix)
		printOutcome(stdout, w.name, o, time.Since(start))
		if o.tr != nil {
			path := traceOut
			if path == "" {
				path = filepath.Join(e.root, ".bench_build", "trace-"+w.name+".json")
			} else if len(selected) > 1 {
				path = strings.TrimSuffix(path, ".json") + "-" + w.name + ".json"
			}
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				fmt.Fprintf(stderr, "bench: trace: %v\n", err)
				return 1
			}
			if err := o.tr.write(path, w.name, e.seed); err != nil {
				fmt.Fprintf(stderr, "bench: trace: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "# %s: %d spans written to %s (%d dropped)\n", w.name, len(o.tr.spans), path, o.tr.dropped)
		}
		combined.Correct = combined.Correct && r.Correct
		combined.Attempted += r.Attempted
		combined.Failed += r.Failed
		for k, v := range r.Metrics {
			combined.Metrics[k] = v
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !combined.Correct {
		return 1
	}
	return 0
}

// printHeader names the machine and build every number below was
// measured on.
func printHeader(w io.Writer, e *env) {
	fmt.Fprintf(w, "# commit %s\n", gitCommit(e.root))
	fmt.Fprintf(w, "# %s %s/%s, cpu %q, nproc %d, GOMAXPROCS %d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	mode := "untraced"
	if e.trace {
		mode = "traced (half untraced, half traced)"
	}
	fmt.Fprintf(w, "# seed %d, %g s measured per workload, %s\n", e.seed, e.seconds, mode)
}

func printOutcome(w io.Writer, name string, o *outcome, total time.Duration) {
	s := sorted(o.setup)
	fmt.Fprintf(w, "# %s: setup %.4f s (median of %d, %.4f-%.4f), measured %.2f s, total %.2f s\n",
		name, median(s), len(s), s[0], s[len(s)-1], o.measured, total.Seconds())
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s: %s\n", name, n)
	}
	for _, r := range o.rows {
		fmt.Fprintf(w, "%-12s %-36s %14.6g %s\n", name, r.name, r.value, r.unit)
	}
	errRate := 0.0
	if o.attempted > 0 {
		errRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%-12s %-36s %14.6g %s\n", name, "error_rate", errRate, "ratio")
	for _, p := range o.problems {
		fmt.Fprintf(w, "# %s: CHECK FAILED: %s\n", name, p)
	}
}

// gitCommit reads the checked-out commit from .git without running git,
// so nothing outside the checkout is read; "unknown" outside a clone.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timeSetup runs build at least setupMinRepeats times and until the
// repetitions have taken e.setupTotal, records each duration in o.setup
// and returns the last state built; a non-nil discard releases each
// earlier one before the next is built, outside the timing.
func timeSetup[T any](e *env, o *outcome, build func() (T, error), discard func(T)) (T, error) {
	var st T
	total := 0.0
	for i := 0; i < setupMaxRepeats && (i < setupMinRepeats || total < e.setupTotal.Seconds()); i++ {
		if i > 0 && discard != nil {
			discard(st)
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return st, err
		}
		d := time.Since(t0).Seconds()
		o.setup = append(o.setup, d)
		total += d
		st = s
	}
	return st, nil
}

// latencyMetrics records a pass's latency percentiles: the median of lat
// and the workload's fixed tail percentile of tail (the same samples, or
// a subset of them), which should keep minBeyondTail samples beyond it.
func latencyMetrics(o *outcome, lat, tail []float64, tailP float64) {
	o.metric("latency_ms_p50", median(lat))
	t := sorted(tail)
	o.metric("latency_ms_tail", percentile(t, tailP))
	o.row("latency_tail_percentile", tailP, "pct")
	o.row("latency_samples", float64(len(lat)), "count")
	o.row("latency_tail_samples", float64(len(t)), "count")
	if !tailOK(len(t), tailP) {
		o.row("latency_tail_samples_beyond_TOO_FEW", float64(beyond(len(t), tailP)), "count")
	}
}

// overhead records how much tracing slowed the workload's median op.
func overhead(o *outcome, untracedP50, tracedP50 float64) {
	o.metric("trace.overhead_pct", 100*(tracedP50/untracedP50-1))
}

// runtimeMetrics records the Go runtime's view of a pass.
func runtimeMetrics(o *outcome, d procDelta, ops float64) {
	o.metric("go.gc_cycles", d.gcCycles)
	o.row("go.gc_pause_ms_total", d.gcPauseMs, "ms")
	o.metric("go.alloc_bytes_per_op", d.allocBytes/ops)
}
