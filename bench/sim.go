package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/apt"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// defaultSeed is the seed goldenFingerprints were recorded with.
const defaultSeed = 7

// goldenFingerprints are the simulator's results for the default seed,
// hashed by fingerprintOf. A change that only makes the simulator faster
// leaves them unchanged; one that changes a schedule must update them.
var goldenFingerprints = map[string]string{
	"paper-sweep": "44a7870bbab63366",
	"scale-10k":   "fd2de7819eb6cb24",
}

// simBatchWorkers is paper-sweep's RunBatch pool size: the load comes from
// one process with at most two workers.
const simBatchWorkers = 2

// Tail percentiles of latency_ms_tail, fixed per workload so that the
// expected sample count of a 30 s run keeps at least minBeyondTail
// samples beyond them with room to spare.
const (
	paperTailP = 95
	scaleTailP = 75
)

// timedPolicy decorates a sim.Policy to time Prepare and Select from
// outside the engine: the engine calls Prepare once per run and Select at
// every decision point, so the wrapper sees both without changing the
// simulator.
type timedPolicy struct {
	sim.Policy
	prepStart, prepEnd time.Time
	selectTime         time.Duration
	calls              int
}

func (t *timedPolicy) Prepare(c *sim.Costs) error {
	t.prepStart = time.Now()
	err := t.Policy.Prepare(c)
	t.prepEnd = time.Now()
	return err
}

func (t *timedPolicy) Select(st *sim.State) []sim.Assignment {
	t0 := time.Now()
	a := t.Policy.Select(st)
	t.selectTime += time.Since(t0)
	t.calls++
	return a
}

// simCase is one simulation, held twice: as the public facade's inputs and
// as the same inputs for calling the engine's layers one by one.
type simCase struct {
	w *apt.Workload
	m *apt.Machine
	p apt.Policy

	g         *dfg.Graph
	sys       *platform.System
	newPolicy func() sim.Policy
	group     string // "apt", "heft" or "": per-policy layer metrics
}

// simOut is the part of a result the output checks compare, with floats
// as their bits so equality is exact.
type simOut struct {
	policy           string
	makespan, lambda uint64
}

func publicOut(r *apt.Result) simOut {
	return simOut{r.Policy, math.Float64bits(r.MakespanMs), math.Float64bits(r.LambdaTotalMs)}
}

func engineOut(r *sim.Result) simOut {
	return simOut{r.Policy, math.Float64bits(r.MakespanMs), math.Float64bits(r.Lambda.TotalMs)}
}

// fingerprintOf hashes every run's policy, makespan bits and λ-total bits
// with FNV-1a.
func fingerprintOf(outs []simOut) string {
	h := fnv.New64a()
	var b [8]byte
	for _, o := range outs {
		h.Write([]byte(o.policy))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(b[:], o.makespan)
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], o.lambda)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkGolden compares a reference fingerprint with the recorded one when
// the run uses the inputs it was recorded for.
func checkGolden(o *outcome, name string, seed int64, fp string) {
	o.notes = append(o.notes, "simulator fingerprint "+fp)
	if seed != defaultSeed {
		return
	}
	if want := goldenFingerprints[name]; fp != want {
		o.fail(1, "fingerprint %s for seed %d, recorded %s: simulated results changed", fp, seed, want)
	}
}

// layerRun is the wall time simulations spent in each layer, measured by
// calling the layers one at a time; engine is sim.Run minus Prepare
// and Select.
type layerRun struct {
	runs, kernels, selectCalls                    int
	costs, prepare, sel, engine, validate, public time.Duration
}

func (a *layerRun) add(b layerRun) {
	a.runs += b.runs
	a.kernels += b.kernels
	a.selectCalls += b.selectCalls
	a.costs += b.costs
	a.prepare += b.prepare
	a.sel += b.sel
	a.engine += b.engine
	a.validate += b.validate
	a.public += b.public
}

// facadeSelf is apt.Run's time beyond the layers it calls, on the same
// inputs: option handling, policy instantiation and result assembly.
func (l layerRun) facadeSelf() time.Duration {
	return l.public - l.costs - l.prepare - l.sel - l.engine - l.validate
}

// costConfig is the cost model apt.Run uses when its Options are nil.
var costConfig = sim.CostConfig{Mode: sim.TransferMax}

// runLayers simulates c by calling the engine's layers directly:
// sim.PrepareCosts, sim.Run with the policy behind timedPolicy, and
// sim.Result.Validate. sim.Run draws its Runner from the pool apt.Run
// uses too: a Runner the benchmark kept would differ from apt.Run's in
// warmth and memory placement, which moved run times by up to 15%.
func runLayers(c *simCase, tr *tracer, parent int, req int64) (layerRun, simOut, error) {
	t0 := time.Now()
	costs, err := sim.PrepareCosts(c.g, c.sys, lut.Paper(), costConfig)
	if err != nil {
		return layerRun{}, simOut{}, err
	}
	t1 := time.Now()
	tp := &timedPolicy{Policy: c.newPolicy()}
	res, err := sim.Run(costs, tp, sim.Options{})
	if err != nil {
		return layerRun{}, simOut{}, err
	}
	t2 := time.Now()
	if err := res.Validate(c.g, c.sys); err != nil {
		return layerRun{}, simOut{}, err
	}
	t3 := time.Now()
	// The wrapper's clock reads ran inside sim.Run, about half of each
	// pair inside the timed Select interval; take them back out.
	wrap := time.Duration(tp.calls) * clockPair()
	prep, sel := tp.prepEnd.Sub(tp.prepStart), tp.selectTime-wrap/2
	tr.add("sim.PrepareCosts", t0, t1, parent, req)
	run := tr.add("sim.Run", t1, t2, parent, req)
	tr.add("policy.Prepare", tp.prepStart, tp.prepEnd, run, req)
	tr.addAgg("policy.Select", t1, t2, run, req, int64(tp.calls), sel)
	tr.add("sim.Result.Validate", t2, t3, parent, req)
	return layerRun{
		runs: 1, kernels: c.g.NumKernels(), selectCalls: tp.calls,
		costs: t1.Sub(t0), prepare: prep, sel: sel, engine: t2.Sub(t1) - wrap - prep - sel,
		validate: t3.Sub(t2),
	}, engineOut(res), nil
}

// clockPair is what a time.Now and time.Since pair costs here, about
// 0.1 µs on a 2-vCPU VM: timedPolicy pays one per Select call. It is the
// fastest of a few trials, which leaves interruptions out.
var clockPair = sync.OnceValue(func() time.Duration {
	const n = 20_000
	best := time.Duration(math.MaxInt64)
	for range 5 {
		var sum time.Duration
		t0 := time.Now()
		for range n {
			t := time.Now()
			sum += time.Since(t)
		}
		best = min(best, time.Since(t0)/n)
		clockSink = sum
	}
	return best
})

// clockSink keeps clockPair's loop from being optimised away.
var clockSink time.Duration

// decompose times one config layer by layer and through apt.Run on the
// same inputs, checking that both paths give the same schedule. The order
// of the two alternates with req, so neither always runs on warm caches.
func decompose(c *simCase, tr *tracer, req int64) (layerRun, error) {
	t0 := time.Now()
	root := tr.add("sim.config", t0, t0, -1, req)
	var l layerRun
	var want, got simOut
	var public time.Duration
	for i := range 2 {
		if (i+int(req))%2 == 0 {
			var err error
			if l, want, err = runLayers(c, tr, root, req); err != nil {
				return l, err
			}
			continue
		}
		t1 := time.Now()
		res, err := apt.Run(c.w, c.m, c.p, nil)
		if err != nil {
			return l, err
		}
		t2 := time.Now()
		tr.add("apt.Run", t1, t2, root, req)
		public, got = t2.Sub(t1), publicOut(res)
	}
	tr.end(root, time.Now())
	if got != want {
		return l, fmt.Errorf("apt.Run gives %+v, the engine's layers %+v", got, want)
	}
	l.public = public
	return l, nil
}

// simPass is one measured pass of a simulator workload, or several
// merged.
type simPass struct {
	lat     []float64            // per-op wall time, ms
	timed   map[string][]float64 // scale-10k: each op's apt.Run wall times by policy group, ms
	kernels float64              // kernels simulated
	elapsed float64              // seconds
	proc    procDelta
	// Traced passes only: layer times over every decomposed config, and
	// the decomposition's apt.Run wall times, by policy group.
	byGroup map[string]layerRun
	public  map[string][]float64
}

func newSimPass() *simPass {
	return &simPass{timed: map[string][]float64{}, byGroup: map[string]layerRun{}, public: map[string][]float64{}}
}

func (p *simPass) merge(q *simPass) {
	p.lat = append(p.lat, q.lat...)
	p.kernels += q.kernels
	p.elapsed += q.elapsed
	p.proc = p.proc.plus(q.proc)
	for g, v := range q.timed {
		p.timed[g] = append(p.timed[g], v...)
	}
	for g, l := range q.byGroup {
		x := p.byGroup[g]
		x.add(l)
		p.byGroup[g] = x
	}
	for g, v := range q.public {
		p.public[g] = append(p.public[g], v...)
	}
}

func (p *simPass) addLayers(group string, l layerRun) {
	g := p.byGroup[group]
	g.add(l)
	p.byGroup[group] = g
	p.public[group] = append(p.public[group], ms(l.public))
}

// layers sums the layer times over every policy group.
func (p *simPass) layers() layerRun {
	var all layerRun
	for _, l := range p.byGroup {
		all.add(l)
	}
	return all
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// simEndToEnd records the end-to-end metrics of an untraced pass.
func simEndToEnd(o *outcome, p *simPass, tailP float64) {
	o.metric("throughput_per_s", p.kernels/p.elapsed)
	latencyMetrics(o, p.lat, p.lat, tailP)
	o.row("cpu_us_per_op", 1e6*p.proc.cpuSec/p.kernels, "us")
	runtimeMetrics(o, p.proc, p.kernels)
}

// layerMetrics records a traced pass's per-layer metrics: each layer's
// share of apt.Run's wall time on the same inputs, plus per-run times.
func layerMetrics(o *outcome, p *simPass) {
	share := func(d time.Duration, of layerRun) float64 { return 100 * d.Seconds() / of.public.Seconds() }
	perRun := func(d time.Duration, of layerRun) float64 { return ms(d) / float64(of.runs) }
	all := p.layers()
	o.metric("sim.prepare_costs_share", share(all.costs, all))
	o.metric("policy.prepare_share", share(all.prepare, all))
	o.metric("policy.select_share", share(all.sel, all))
	o.metric("sim.engine_self_share", share(all.engine, all))
	o.metric("sim.validate_share", share(all.validate, all))
	o.metric("apt.facade_self_share", share(all.facadeSelf(), all))
	o.metric("policy.select_calls_per_kernel", float64(all.selectCalls)/float64(all.kernels))
	o.row("sim.decomposed_runs", float64(all.runs), "count")
	o.row("trace.clock_pair_ns", float64(clockPair().Nanoseconds()), "ns")
	o.row("apt.run_ms", perRun(all.public, all), "ms/run")
	o.row("sim.prepare_costs_ms", perRun(all.costs, all), "ms/run")
	o.row("sim.validate_ms", perRun(all.validate, all), "ms/run")
	o.row("apt.facade_self_ms", perRun(all.facadeSelf(), all), "ms/run")
	if a, ok := p.byGroup["apt"]; ok {
		o.metric("policy.select_share.apt", share(a.sel, a))
		o.row("policy.select_calls.apt", float64(a.selectCalls)/float64(a.runs), "calls/run")
		o.row("policy.select_ms.apt", perRun(a.sel, a), "ms/run")
		o.row("policy.select_ns_per_call.apt", float64(a.sel.Nanoseconds())/float64(a.selectCalls), "ns")
		o.row("sim.engine_self_ms.apt", perRun(a.engine, a), "ms/run")
	}
	if h, ok := p.byGroup["heft"]; ok {
		o.metric("policy.prepare_share.heft", share(h.prepare, h))
		o.row("policy.prepare_ms.heft", perRun(h.prepare, h), "ms/run")
		o.row("sim.engine_self_ms.heft", perRun(h.engine, h), "ms/run")
	}
}

// ---- paper-sweep --------------------------------------------------------

// policySpec is one policy of the thesis grid, as the facade's value and
// as a constructor of the same engine policy.
type policySpec struct {
	public apt.Policy
	engine func() sim.Policy
	group  string
}

// paperPolicies is the thesis's comparison set: APT over its α grid,
// APT-R, and the six baselines.
func paperPolicies(seed int64) []policySpec {
	aptAt := func(a float64) policySpec {
		return policySpec{apt.APT(a), func() sim.Policy { return core.New(a) }, "apt"}
	}
	return []policySpec{
		aptAt(1.5), aptAt(2), aptAt(4), aptAt(8), aptAt(16),
		{apt.APTR(4), func() sim.Policy { return core.NewR(4) }, ""},
		{apt.MET(seed), func() sim.Policy { return policy.NewMET(seed) }, ""},
		{apt.SPN(), func() sim.Policy { return policy.NewSPN() }, ""},
		{apt.SS(), func() sim.Policy { return policy.NewSS() }, ""},
		{apt.AG(), func() sim.Policy { return policy.NewAG() }, ""},
		{apt.HEFT(), func() sim.Policy { return policy.NewHEFT() }, "heft"},
		{apt.PEFT(), func() sim.Policy { return policy.NewPEFT() }, ""},
	}
}

// paperState is paper-sweep's prepared input: the thesis grid of Type-1
// and Type-2 graphs at the ten experiment sizes, on the paper machine at
// 4 and 8 GB/s, under every policy.
type paperState struct {
	cases   []simCase
	configs []apt.RunConfig
	ref     []simOut
	kernels int
	buildMs float64
}

func newPaperState(seed int64, o *outcome) (*paperState, error) {
	st := &paperState{}
	type graph struct {
		w *apt.Workload
		g *dfg.Graph
	}
	var graphs []graph
	var build time.Duration
	counts := workload.ExperimentKernelCounts
	for ti, t := range []apt.GraphType{apt.Type1, apt.Type2} {
		for i, n := range counts {
			gseed := seed + int64(ti*len(counts)+i)*1_000_003
			t0 := time.Now()
			w, err := apt.GenerateWorkload(t, n, gseed)
			if err != nil {
				return nil, err
			}
			build += time.Since(t0)
			// The same graph for the engine's layers, by GenerateWorkload's
			// recipe: one series per seed from the paper catalog.
			series := workload.PaperCatalog().RandomSeries(rand.New(rand.NewSource(gseed)), n)
			g, err := workload.Build(t, series)
			if err != nil {
				return nil, err
			}
			graphs = append(graphs, graph{w, g})
		}
	}
	st.buildMs = ms(build)
	for _, rate := range []float64{4, 8} {
		m, sys := apt.PaperMachine(rate), platform.PaperSystem(platform.GBps(rate))
		for _, gr := range graphs {
			for _, p := range paperPolicies(seed) {
				st.cases = append(st.cases, simCase{
					w: gr.w, m: m, p: p.public, g: gr.g, sys: sys, newPolicy: p.engine, group: p.group,
				})
				st.configs = append(st.configs, apt.RunConfig{Workload: gr.w, Machine: m, Policy: p.public})
				st.kernels += gr.g.NumKernels()
			}
		}
	}
	// Reference results from the engine's layers, then one untimed batch
	// through the measured path.
	for i := range st.cases {
		_, out, err := runLayers(&st.cases[i], nil, -1, 0)
		if err != nil {
			return nil, fmt.Errorf("reference run %d: %w", i, err)
		}
		st.ref = append(st.ref, out)
	}
	st.batch(o)
	return st, nil
}

// batch runs every config through apt.RunBatch and checks each result
// against the reference.
func (st *paperState) batch(o *outcome) {
	res, err := apt.RunBatch(context.Background(), st.configs, &apt.BatchOptions{Workers: simBatchWorkers})
	o.attempted += int64(len(st.configs))
	if err != nil {
		o.fail(0, "RunBatch: %v", err)
	}
	for i, r := range res {
		if r == nil {
			o.fail(1, "config %d: no result", i)
		} else if got := publicOut(r); got != st.ref[i] {
			o.fail(1, "config %d: RunBatch gives %+v, the engine's layers %+v", i, got, st.ref[i])
		}
	}
}

// paperDecomposePerBatch is how many configs a traced pass pushes through
// the layers after each batch, taking the grid in turn. A few per batch
// cover the grid many times in a run while the batches keep running
// back to back.
const paperDecomposePerBatch = 8

// pass runs back-to-back batches for d. A traced pass also pushes a few
// configs through the layers after each batch.
func (st *paperState) pass(o *outcome, d time.Duration) *simPass {
	p := newSimPass()
	next := 0
	before := sampleProc()
	start := time.Now()
	end := start
	for end.Sub(start) < d {
		t0 := time.Now()
		st.batch(o)
		end = time.Now()
		p.lat = append(p.lat, ms(end.Sub(t0)))
		p.kernels += float64(st.kernels)
		if o.tr == nil {
			continue
		}
		o.tr.add("apt.RunBatch", t0, end, -1, int64(len(p.lat)))
		for range paperDecomposePerBatch {
			i := next % len(st.cases)
			l, err := decompose(&st.cases[i], o.tr, int64(next))
			next++
			o.attempted++
			if err != nil {
				o.fail(1, "config %d: %v", i, err)
				continue
			}
			p.addLayers(st.cases[i].group, l)
		}
		end = time.Now()
	}
	p.elapsed = end.Sub(start).Seconds()
	p.proc = before.to(sampleProc())
	o.measured += p.elapsed
	return p
}

func runPaperSweep(e *env, o *outcome) error {
	st, err := timeSetup(e, o, func() (*paperState, error) { return newPaperState(e.seed, o) }, nil)
	if err != nil {
		return err
	}
	o.row("dfg.build_ms", st.buildMs, "ms")
	o.row("sweep.configs_per_batch", float64(len(st.configs)), "count")
	o.row("sweep.kernels_per_batch", float64(st.kernels), "count")
	checkGolden(o, "paper-sweep", e.seed, fingerprintOf(st.ref))

	u, t := newSimPass(), newSimPass()
	if err := measurePasses(e, o, u, t, func(d time.Duration) (*simPass, error) { return st.pass(o, d), nil }); err != nil {
		return err
	}
	simEndToEnd(o, u, paperTailP)
	o.row("batch_ms_p95", percentile(sorted(u.lat), 95), "ms")
	if !e.trace {
		return nil
	}
	layerMetrics(o, t)
	overhead(o, median(u.lat), median(t.lat))
	// Sequential apt.Run time of one batch's configs over the batch's wall
	// time: what the pool and its per-worker memo save.
	all := t.layers()
	seq := ms(all.public) / float64(all.runs) * float64(len(st.configs))
	o.metric("apt.batch_pool_speedup", seq/median(t.lat))
	return nil
}

// ---- scale-10k ----------------------------------------------------------

// scaleMachineProcs and scaleRateGBps give scale-10k's machine: eight
// processors cycling CPU, GPU, FPGA, linked at 4 GB/s.
const (
	scaleMachineProcs = 8
	scaleRateGBps     = 4
)

// scaleState is scale-10k's prepared input: one layered DAG and a fresh
// HEFT and APT(4) run per iteration.
type scaleState struct {
	cases   [2]simCase // HEFT, APT(4)
	ref     [2]simOut
	kernels int
	buildMs float64
}

func newScaleState(seed int64, n int, o *outcome) (*scaleState, error) {
	cfg := workload.DefaultScaleLayeredConfig()
	t0 := time.Now()
	w, err := apt.GenerateLayeredWorkload(n, cfg.Layers, cfg.FanIn, seed)
	if err != nil {
		return nil, err
	}
	st := &scaleState{kernels: n, buildMs: ms(time.Since(t0))}
	m, err := apt.ScaleMachine(scaleMachineProcs, scaleRateGBps)
	if err != nil {
		return nil, err
	}
	// The same graph and machine for the engine's layers, by the recipes
	// of GenerateLayeredWorkload and ScaleMachine.
	series, err := workload.ScaleSeries(n, seed)
	if err != nil {
		return nil, err
	}
	g, err := workload.BuildScaleLayered(series, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	b := platform.NewBuilder()
	kinds := platform.StandardKinds()
	for i := 0; i < scaleMachineProcs; i++ {
		b.AddProcessor(kinds[i%len(kinds)], "")
	}
	sys, err := b.SetUniformRate(platform.GBps(scaleRateGBps)).Build()
	if err != nil {
		return nil, err
	}
	st.cases[0] = simCase{w: w, m: m, p: apt.HEFT(), g: g, sys: sys,
		newPolicy: func() sim.Policy { return policy.NewHEFT() }, group: "heft"}
	st.cases[1] = simCase{w: w, m: m, p: apt.APT(4), g: g, sys: sys,
		newPolicy: func() sim.Policy { return core.New(4) }, group: "apt"}
	for i := range st.cases {
		_, out, err := runLayers(&st.cases[i], nil, -1, 0)
		if err != nil {
			return nil, fmt.Errorf("reference %s run: %w", st.cases[i].p.Name(), err)
		}
		st.ref[i] = out
	}
	st.iter(o, nil, 0)
	return st, nil
}

// iter runs one fresh apt.Run per policy and checks each result; it
// returns their wall times.
func (st *scaleState) iter(o *outcome, tr *tracer, req int64) [2]time.Duration {
	var d [2]time.Duration
	root := tr.add("scale.iter", time.Now(), time.Now(), -1, req)
	for i := range st.cases {
		c := &st.cases[i]
		t0 := time.Now()
		res, err := apt.Run(c.w, c.m, c.p, nil)
		t1 := time.Now()
		d[i] = t1.Sub(t0)
		tr.add("apt.Run", t0, t1, root, req)
		o.attempted++
		if err != nil {
			o.fail(1, "%s: %v", c.p.Name(), err)
		} else if got := publicOut(res); got != st.ref[i] {
			o.fail(1, "%s: apt.Run gives %+v, the engine's layers %+v", c.p.Name(), got, st.ref[i])
		}
	}
	tr.end(root, time.Now())
	return d
}

// pass iterates for d. A traced pass also pushes both policies through
// the layers after each iteration, outside the iteration's timing.
func (st *scaleState) pass(o *outcome, d time.Duration) *simPass {
	p := newSimPass()
	before := sampleProc()
	start := time.Now()
	end := start
	for end.Sub(start) < d {
		req := int64(len(p.lat))
		t0 := time.Now()
		runs := st.iter(o, o.tr, req)
		end = time.Now()
		p.lat = append(p.lat, ms(end.Sub(t0)))
		p.kernels += float64(2 * st.kernels)
		for i, x := range runs {
			g := st.cases[i].group
			p.timed[g] = append(p.timed[g], ms(x))
		}
		if o.tr == nil {
			continue
		}
		for i := range st.cases {
			l, err := decompose(&st.cases[i], o.tr, req)
			o.attempted++
			if err != nil {
				o.fail(1, "%s: %v", st.cases[i].p.Name(), err)
				continue
			}
			p.addLayers(st.cases[i].group, l)
		}
		end = time.Now()
	}
	p.elapsed = end.Sub(start).Seconds()
	p.proc = before.to(sampleProc())
	o.measured += p.elapsed
	return p
}

func runScale(e *env, o *outcome) error {
	st, err := timeSetup(e, o, func() (*scaleState, error) { return newScaleState(e.seed, e.scaleKernels, o) }, nil)
	if err != nil {
		return err
	}
	o.row("dfg.build_ms", st.buildMs, "ms")
	o.row("scale.kernels", float64(st.kernels), "count")
	fp := fingerprintOf(st.ref[:])
	if st.kernels == 10_000 {
		checkGolden(o, "scale-10k", e.seed, fp)
	}

	u, t := newSimPass(), newSimPass()
	if err := measurePasses(e, o, u, t, func(d time.Duration) (*simPass, error) { return st.pass(o, d), nil }); err != nil {
		return err
	}
	simEndToEnd(o, u, scaleTailP)
	o.row("heft_run_ms_p50", median(u.timed["heft"]), "ms")
	o.row("apt_run_ms_p50", median(u.timed["apt"]), "ms")
	o.row("scale.iter_ms_p90", percentile(sorted(u.lat), 90), "ms")
	if !e.trace {
		return nil
	}
	layerMetrics(o, t)
	overhead(o, median(u.lat), median(t.lat))
	// The traced layers add up to the decomposition's apt.Run by
	// construction; compare that with the untraced runs.
	for _, c := range st.cases {
		o.row("sim.layers_vs_untraced_pct."+c.group, 100*(median(t.public[c.group])/median(u.timed[c.group])-1), "%")
	}
	return nil
}
