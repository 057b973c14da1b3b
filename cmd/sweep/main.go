// Command sweep explores APT's parameter space beyond the paper's grid:
// a dense α sweep at multiple transfer rates, run in parallel, reporting
// suite-average makespan and λ per point plus the empirical thresholdbrk
// (the α minimising average makespan — the bottom of the paper's valley).
//
// With -stream it switches to the open-system evaluation the paper never
// ran: a multi-thousand-kernel arrival stream, sharded into windows and
// fanned across the batch runner, sweeping arrival rate λ against
// per-policy sojourn-latency percentiles (p50/p95/p99).
//
// With -robust it sweeps estimate-error magnitude × policy: policies keep
// deciding with the clean lookup table while the simulated hardware follows
// a perturbed copy (optionally plus platform-degradation events), and every
// point reports the regret against the perfect-information oracle — "which
// policy survives bad estimates".
//
// Usage:
//
//	sweep -type 2 -alphas 1,1.5,2,3,4,6,8,12,16,24,32 -rates 1,4,8,16
//	sweep -type 1 -policy apt-r    # sweep the future-work variant
//	sweep -type 2 -trace-out best.json   # also export the best-α schedule
//	                                     # as a chrome://tracing JSON trace
//	sweep -stream -arrival poisson -kernels 5000 -gaps 500,1000,2000
//	sweep -stream -arrival bursty -gaps 100,200 -burst-len 2000 -idle-len 8000
//	sweep -stream -arrival trace -trace arrivals.txt
//	sweep -robust -noise uniform -fracs 0,0.1,0.3,0.5 -policies apt,met,heft
//	sweep -robust -noise drift -bias gpu:1.3 -degrade slow:1:2:5000:20000
//
// With -scale it sweeps large synthetic graphs (bounded-fan-in layered
// DAGs or fork-join meshes, up to 100k kernels) × policies on a
// many-processor machine — the large-graph stress mode behind the
// BenchmarkScale suite:
//
//	sweep -scale -scale-sizes 1000,10000,100000 -policies apt,heft -procs 16 -timing
//	sweep -scale -shape forkjoin -width 128 -scale-sizes 50000 -procs 64
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/apt"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	var (
		typ     = flag.Int("type", 1, "DFG type: 1 or 2")
		alphas  = flag.String("alphas", "1,1.5,2,3,4,6,8,12,16,24,32", "comma-separated α values")
		rates   = flag.String("rates", "4,8", "comma-separated link rates in GB/s")
		polName = flag.String("policy", "apt", "apt or apt-r")
		seed    = flag.Int64("seed", 20170301, "workload suite seed")
		sizes   = flag.String("sizes", "46,58,50,73,69,81,125,93,132,157", "kernel counts of the suite graphs")

		stream   = flag.Bool("stream", false, "open-system streaming mode: sweep arrival rate vs latency percentiles")
		arrival  = flag.String("arrival", "poisson", "streaming arrival shape: poisson, periodic, bursty, diurnal or trace")
		kernels  = flag.Int("kernels", 5000, "streaming: total kernels in the stream")
		window   = flag.Int("window", 500, "streaming: kernels per shard window")
		gaps     = flag.String("gaps", "500,1000,2000,4000", "streaming: mean arrival gaps in ms (the λ sweep axis)")
		policies = flag.String("policies", "apt,met,spn,olb,heft", "streaming: comma-separated policies to compare")
		alpha    = flag.Float64("alpha", 4, "streaming: APT flexibility factor")
		rate     = flag.Float64("rate", 4, "streaming: link rate in GB/s")
		tracePth = flag.String("trace", "", "streaming: arrival-trace file (one ms timestamp per line) for -arrival trace")
		burstLen = flag.Float64("burst-len", 2000, "streaming bursty: mean burst duration ms")
		idleLen  = flag.Float64("idle-len", 8000, "streaming bursty: mean idle duration ms")
		period   = flag.Float64("period", 60000, "streaming diurnal: rate cycle period ms")
		amp      = flag.Float64("amp", 0.8, "streaming diurnal: rate amplitude in [0,1)")
		hist     = flag.Bool("hist", false, "streaming: print a sojourn histogram per policy for the last gap")

		scale      = flag.Bool("scale", false, "scale mode: large synthetic graphs × policies on a many-processor machine")
		scaleShape = flag.String("shape", "layered", "scale: graph family — layered or forkjoin")
		scaleSizes = flag.String("scale-sizes", "1000,10000", "scale: kernel counts to sweep")
		procs      = flag.Int("procs", 8, "scale: number of processors (kinds cycle CPU/GPU/FPGA)")
		layers     = flag.Int("layers", 0, "scale layered: dependency levels (0 = default 32)")
		fanIn      = flag.Int("fanin", 0, "scale layered: max predecessors per kernel (0 = default 3)")
		width      = flag.Int("width", 0, "scale forkjoin: parallel kernels per stage (0 = default 64)")
		timing     = flag.Bool("timing", false, "scale: print wall-clock throughput to stderr")

		robust  = flag.Bool("robust", false, "robustness mode: sweep estimate-error magnitude vs per-policy regret")
		noise   = flag.String("noise", "uniform", "robustness: noise model — uniform, lognormal or drift")
		fracs   = flag.String("fracs", "0,0.1,0.3,0.5", "robustness: noise magnitudes (the sweep axis)")
		bias    = flag.String("bias", "", "robustness: per-kind estimate bias, e.g. gpu:1.3,cpu:0.9 (actual = estimate × factor)")
		degrade = flag.String("degrade", "", "robustness: degradation events, e.g. slow:1:2:1000:5000,off:2:8000:9000,link:0:1:4:0:2000")
		gap     = flag.Float64("gap", 500, "robustness: Poisson arrival mean gap ms (0 = closed submit-at-zero model)")

		traceOut = flag.String("trace-out", "", "write a Chrome trace (chrome://tracing JSON) of the best-α run on the largest suite graph to FILE (α-sweep mode only)")
	)
	flag.Parse()
	var err error
	switch {
	case *stream:
		err = runStream(os.Stdout, streamConfig{
			arrival: *arrival, kernels: *kernels, window: *window,
			gapCSV: *gaps, policyCSV: *policies, alpha: *alpha, rate: *rate,
			seed: *seed, tracePath: *tracePth,
			burstLen: *burstLen, idleLen: *idleLen, period: *period, amp: *amp,
			hist: *hist,
		})
	case *scale:
		err = runScale(os.Stdout, scaleConfig{
			shape: *scaleShape, sizeCSV: *scaleSizes, policyCSV: *policies,
			procs: *procs, layers: *layers, fanIn: *fanIn, width: *width,
			alpha: *alpha, rate: *rate, seed: *seed, timing: *timing,
		})
	case *robust:
		err = runRobust(os.Stdout, robustConfig{
			typ: *typ, sizeCSV: *sizes, fracCSV: *fracs, policyCSV: *policies,
			noise: *noise, biasCSV: *bias, degradeCSV: *degrade,
			alpha: *alpha, rate: *rate, seed: *seed, gapMs: *gap,
		})
	default:
		err = run(os.Stdout, *typ, *alphas, *rates, *polName, *seed, *sizes, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// robustConfig carries the flags of the robustness mode.
type robustConfig struct {
	typ        int
	sizeCSV    string
	fracCSV    string
	policyCSV  string
	noise      string
	biasCSV    string
	degradeCSV string
	alpha      float64
	rate       float64
	seed       int64
	gapMs      float64
}

// runRobust sweeps estimate-error magnitude × policy over the workload
// suite and reports per-policy regret against the perfect-information
// oracle plus the p99 sojourn tail. Everything is seeded, so reruns print
// byte-identical results.
func runRobust(w io.Writer, cfg robustConfig) error {
	model, err := apt.ParseNoiseModel(cfg.noise)
	if err != nil {
		return err
	}
	fracsMs, err := parseFloats(cfg.fracCSV)
	if err != nil {
		return fmt.Errorf("fracs: %w", err)
	}
	pols, err := parsePolicies(cfg.policyCSV, cfg.alpha)
	if err != nil {
		return err
	}
	biasMap, err := parseBias(cfg.biasCSV)
	if err != nil {
		return err
	}
	var events []apt.DegradeEvent
	if cfg.degradeCSV != "" {
		events, err = apt.ParseDegradeEvents(cfg.degradeCSV)
		if err != nil {
			return err
		}
	}
	workloads, err := suiteWorkloads(cfg.typ, cfg.sizeCSV, cfg.seed)
	if err != nil {
		return err
	}

	rcfg := apt.RobustnessConfig{
		Workloads: workloads,
		Machine:   apt.PaperMachine(cfg.rate),
		Policies:  pols,
		Fracs:     fracsMs,
		Model:     model,
		Bias:      biasMap,
		Events:    events,
		Seed:      cfg.seed,
	}
	if cfg.gapMs > 0 {
		rcfg.Arrivals = func(wl *apt.Workload, i int) ([]float64, error) {
			return apt.PoissonArrivals(wl, cfg.gapMs, cfg.seed+int64(i))
		}
	}
	points, err := apt.RunRobustness(context.Background(), rcfg)
	if err != nil {
		return err
	}

	// Points come back frac-major in config order: one regret table per
	// noise level, then cross-level figures.
	var xLabels []string
	regret := map[string][]float64{}
	p99 := map[string][]float64{}
	var order []string
	for _, p := range pols {
		order = append(order, p.Name())
	}
	for i := 0; i < len(points); i += len(pols) {
		frac := points[i].Frac
		var rows []report.RegretRow
		for _, pt := range points[i : i+len(pols)] {
			rows = append(rows, report.RegretRow{
				Label:        pt.Policy,
				MakespanMs:   pt.MakespanMs,
				OracleMs:     pt.OracleMs,
				RegretPct:    pt.RegretPct,
				P99SojournMs: pt.P99SojournMs,
			})
			regret[pt.Policy] = append(regret[pt.Policy], pt.RegretPct)
			p99[pt.Policy] = append(p99[pt.Policy], pt.P99SojournMs)
		}
		xLabels = append(xLabels, fmt.Sprintf("%g", frac))
		title := fmt.Sprintf("robustness, %s noise frac=%g, %d workloads, gap=%g ms", model, frac, len(workloads), cfg.gapMs)
		if len(events) > 0 {
			title += fmt.Sprintf(", %d degradation events", len(events))
		}
		if err := report.RegretTable(title, rows).Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	if len(xLabels) > 1 {
		for _, fig := range []struct {
			title, y string
			ys       map[string][]float64
		}{
			{"regret vs estimate-error magnitude", "regret %", regret},
			{"p99 sojourn vs estimate-error magnitude", "p99 sojourn ms", p99},
		} {
			f, err := report.LatencyFigure(fig.title, "noise frac", fig.y, xLabels, order, fig.ys)
			if err != nil {
				return err
			}
			if err := f.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// parsePolicies resolves a comma-separated policy list.
func parsePolicies(csv string, alpha float64) ([]apt.Policy, error) {
	var pols []apt.Policy
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, err := apt.ParsePolicy(name, alpha, 1)
		if err != nil {
			return nil, err
		}
		pols = append(pols, p)
	}
	if len(pols) == 0 {
		return nil, fmt.Errorf("no policies given")
	}
	return pols, nil
}

// parseBias parses "gpu:1.3,cpu:0.9" into a per-kind bias map (empty spec
// -> nil).
func parseBias(csv string) (map[apt.ProcKind]float64, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	out := map[apt.ProcKind]float64{}
	for _, item := range strings.Split(csv, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kv := strings.Split(item, ":")
		if len(kv) != 2 {
			return nil, fmt.Errorf("malformed bias %q (want kind:factor)", item)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bias %q: %w", item, err)
		}
		out[apt.ProcKind(strings.ToUpper(strings.TrimSpace(kv[0])))] = v
	}
	return out, nil
}

// suiteWorkloads generates the batch suite the makespan sweep also uses.
func suiteWorkloads(typ int, sizeCSV string, seed int64) ([]*apt.Workload, error) {
	sizesF, err := parseFloats(sizeCSV)
	if err != nil {
		return nil, fmt.Errorf("sizes: %w", err)
	}
	var workloads []*apt.Workload
	for i, sz := range sizesF {
		w, err := apt.GenerateWorkload(apt.GraphType(typ), int(sz), seed+int64(i)*1_000_003)
		if err != nil {
			return nil, err
		}
		workloads = append(workloads, w)
	}
	return workloads, nil
}

// streamConfig carries the flags of the open-system streaming mode.
type streamConfig struct {
	arrival   string
	kernels   int
	window    int
	gapCSV    string
	policyCSV string
	alpha     float64
	rate      float64
	seed      int64
	tracePath string
	burstLen  float64
	idleLen   float64
	period    float64
	amp       float64
	hist      bool
}

// runStream sweeps arrival rate λ against per-policy sojourn-latency
// percentiles over a sharded open-system stream. Everything is seeded, so
// reruns print byte-identical results.
func runStream(w io.Writer, cfg streamConfig) error {
	pols, err := parsePolicies(cfg.policyCSV, cfg.alpha)
	if err != nil {
		return err
	}
	m := apt.PaperMachine(cfg.rate)

	gapsMs, err := parseFloats(cfg.gapCSV)
	if err != nil {
		return fmt.Errorf("gaps: %w", err)
	}
	if cfg.arrival == "trace" {
		gapsMs = []float64{0} // a trace is one operating point, not a sweep
	}

	var xLabels []string
	p99 := map[string][]float64{}
	var order []string
	for _, p := range pols {
		order = append(order, p.Name())
	}
	var lastResults []*apt.StreamResult
	for _, gap := range gapsMs {
		shards, err := buildShards(cfg, gap)
		if err != nil {
			return err
		}
		var rows []report.LatencyRow
		lastResults = lastResults[:0]
		var offered float64
		for _, p := range pols {
			res, err := apt.RunStream(context.Background(), shards, m, p, nil)
			if err != nil {
				return fmt.Errorf("policy %s: %w", p.Name(), err)
			}
			rows = append(rows, report.LatencyRow{Label: p.Name(), S: summaryOf(res.Sojourn)})
			p99[p.Name()] = append(p99[p.Name()], res.Sojourn.P99Ms)
			offered = res.OfferedPerSec
			lastResults = append(lastResults, res)
		}
		label := fmt.Sprintf("%g", gap)
		title := fmt.Sprintf("sojourn latency, arrival=%s, %d kernels in %d-kernel windows, gap=%g ms (offered λ=%.3f/s)",
			cfg.arrival, lastResults[0].Kernels, cfg.window, gap, offered)
		if cfg.arrival == "trace" {
			label = "trace"
			title = fmt.Sprintf("sojourn latency, trace %s, %d kernels in %d-kernel windows (offered λ=%.3f/s)",
				cfg.tracePath, lastResults[0].Kernels, cfg.window, offered)
		}
		xLabels = append(xLabels, label)
		if err := report.LatencyTable(title, rows).Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	if len(xLabels) > 1 {
		fig, err := report.LatencyFigure("p99 sojourn vs arrival gap", "gap ms", "p99 sojourn ms", xLabels, order, p99)
		if err != nil {
			return err
		}
		if err := fig.Render(w); err != nil {
			return err
		}
	}
	if cfg.hist {
		for i, p := range pols {
			h, err := stats.NewHistogram(1.3)
			if err != nil {
				return err
			}
			for _, s := range lastResults[i].SojournsMs {
				h.Add(s)
			}
			fig := report.HistogramFigure(fmt.Sprintf("%s sojourn distribution (last gap)", p.Name()), "sojourn ms", h)
			if err := fig.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// summaryOf mirrors an already-computed public latency summary back into
// the report layer's type, avoiding a re-sort of the raw samples.
func summaryOf(ls apt.LatencyStats) stats.Summary {
	return stats.Summary{
		Count: ls.Count, Mean: ls.MeanMs, Std: ls.StdMs, Min: ls.MinMs, Max: ls.MaxMs,
		P50: ls.P50Ms, P90: ls.P90Ms, P95: ls.P95Ms, P99: ls.P99Ms,
	}
}

// buildShards constructs the stream's windows for one operating point.
func buildShards(cfg streamConfig, gapMs float64) ([]apt.StreamShard, error) {
	if cfg.arrival == "trace" {
		if cfg.tracePath == "" {
			return nil, fmt.Errorf("-arrival trace requires -trace FILE")
		}
		f, err := os.Open(cfg.tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		times, err := apt.ReadTrace(f)
		if err != nil {
			return nil, err
		}
		return apt.TraceStream(times, cfg.window, cfg.seed)
	}
	gen := func(w *apt.Workload, seed int64) ([]float64, error) {
		switch cfg.arrival {
		case "poisson":
			return apt.PoissonArrivals(w, gapMs, seed)
		case "periodic":
			return apt.PeriodicArrivals(w, gapMs)
		case "bursty":
			return apt.BurstyArrivals(w, apt.BurstyConfig{
				BurstGapMs: gapMs, BurstMs: cfg.burstLen, IdleMs: cfg.idleLen}, seed)
		case "diurnal":
			return apt.DiurnalArrivals(w, apt.DiurnalConfig{
				MeanGapMs: gapMs, PeriodMs: cfg.period, Amplitude: cfg.amp}, seed)
		default:
			return nil, fmt.Errorf("unknown arrival shape %q (known: poisson, periodic, bursty, diurnal, trace)", cfg.arrival)
		}
	}
	return apt.MakeStream(cfg.kernels, cfg.window, cfg.seed, gen)
}

type point struct {
	rate, alpha      float64
	makespan, lambda float64
}

func run(w io.Writer, typ int, alphaCSV, rateCSV, polName string, seed int64, sizeCSV, traceOut string) error {
	alphas, err := parseFloats(alphaCSV)
	if err != nil {
		return fmt.Errorf("alphas: %w", err)
	}
	rates, err := parseFloats(rateCSV)
	if err != nil {
		return fmt.Errorf("rates: %w", err)
	}

	// Pre-generate the suite once; runs share the graphs read-only.
	workloads, err := suiteWorkloads(typ, sizeCSV, seed)
	if err != nil {
		return err
	}

	// Fan the (rate, alpha, workload) grid through the batch runner: one
	// config per simulation, point-major so point i owns configs
	// [i*len(workloads), (i+1)*len(workloads)).
	var points []point
	var cfgs []apt.RunConfig
	for _, r := range rates {
		m := apt.PaperMachine(r)
		for _, a := range alphas {
			pol, err := apt.ParsePolicy(polName, a, 1)
			if err != nil {
				return err
			}
			points = append(points, point{rate: r, alpha: a})
			for _, w := range workloads {
				cfgs = append(cfgs, apt.RunConfig{Workload: w, Machine: m, Policy: pol})
			}
		}
	}
	results, err := apt.RunBatch(context.Background(), cfgs, nil)
	if err != nil {
		return err
	}
	for i := range points {
		var mkSum, lamSum float64
		for _, res := range results[i*len(workloads) : (i+1)*len(workloads)] {
			mkSum += res.MakespanMs
			lamSum += res.LambdaTotalMs
		}
		points[i].makespan = mkSum / float64(len(workloads))
		points[i].lambda = lamSum / float64(len(workloads))
	}

	sort.Slice(points, func(i, j int) bool {
		// Three-way rate comparison (no float equality): exact ties fall
		// through to the alpha tie-break.
		if points[i].rate < points[j].rate {
			return true
		}
		if points[j].rate < points[i].rate {
			return false
		}
		return points[i].alpha < points[j].alpha
	})
	fmt.Fprintf(w, "%-8s %-8s %-16s %-16s\n", "rate", "alpha", "avg makespan ms", "avg lambda ms")
	bestPerRate := map[float64]point{}
	for _, p := range points {
		fmt.Fprintf(w, "%-8g %-8g %-16.3f %-16.3f\n", p.rate, p.alpha, p.makespan, p.lambda)
		if b, ok := bestPerRate[p.rate]; !ok || p.makespan < b.makespan {
			bestPerRate[p.rate] = p
		}
	}
	fmt.Fprintln(w)
	for _, r := range rates {
		b := bestPerRate[r]
		fmt.Fprintf(w, "thresholdbrk at %g GB/s: α = %g (avg makespan %.3f ms)\n", r, b.alpha, b.makespan)
	}

	if traceOut != "" {
		// Re-run the best-α point of the first rate on the largest suite
		// graph and export its placements. The note goes to stderr: stdout
		// is the sweep table, which CI byte-diffs against a golden copy.
		best := bestPerRate[rates[0]]
		pol, err := apt.ParsePolicy(polName, best.alpha, 1)
		if err != nil {
			return err
		}
		biggest := workloads[0]
		for _, wl := range workloads[1:] {
			if wl.NumKernels() > biggest.NumKernels() {
				biggest = wl
			}
		}
		res, err := apt.Run(biggest, apt.PaperMachine(rates[0]), pol, nil)
		if err != nil {
			return err
		}
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := apt.WriteTrace(f, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote Chrome trace of %d kernels (α=%g, rate=%g GB/s) to %s\n",
			biggest.NumKernels(), best.alpha, rates[0], traceOut)
	}
	return nil
}

func parseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
