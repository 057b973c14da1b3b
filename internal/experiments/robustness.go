package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/apt"
	"repro/internal/report"
	"repro/internal/stats"
)

// Robustness extension artifacts: how each policy behaves when its
// estimates are wrong (ext-robustness, ext-robust-p99) or the platform
// degrades mid-run (ext-degrade). Policies always decide on the clean
// Table 14; only the engine's actual-time path is perturbed.

// extRobustFracs are the uniform estimate-error levels swept.
var extRobustFracs = []float64{0, 0.1, 0.3, 0.5}

// extRobustPolicies are the compared policies.
var extRobustPolicies = []apt.Policy{apt.APT(4), apt.MET(metSeed), apt.HEFT(), apt.PEFT()}

// extRobustSeedBase offsets the per-graph noise seeds so every experiment
// of the suite sees its own noise realisation.
const extRobustSeedBase = 7_040

// robustCell is one (frac, policy) aggregate over the Type-2 suite.
type robustCell struct {
	makespanMs float64 // suite mean, clean estimates vs perturbed reality
	oracleMs   float64 // suite mean, perfect information
	regretPct  float64
	p99Ms      float64 // exact p99 sojourn over every kernel of the suite
}

// robustSweep runs the noise sweep and returns one cell per (frac, policy),
// frac-major. For every (frac, policy, graph) it runs two simulations —
// noisy estimates and the perfect-information oracle on the same perturbed
// table — in one apt.RunBatch. Arrivals are Poisson (mean gap
// extStreamMeanGapMs) so the p99 sojourn is an open-system tail, not a
// makespan echo. Graph g draws its noise from seed extRobustSeedBase+g and
// its arrivals from seed 1000+g, which apt.RunRobustness's derived seeds
// would not reproduce, so the twins are built here. The sweep is memoised
// on the Runner; both robustness artifacts share one execution.
//
// The memo lock brackets only the cache reads and writes — never the
// sweep itself: the batch's worker pool would otherwise park with
// robustMu held. If two goroutines race past the empty-cache check they
// both run the sweep (deterministic, so the results are identical) and the
// first store wins.
func (r *Runner) robustSweep() ([]robustCell, error) {
	r.robustMu.Lock()
	cells := r.robustCells
	r.robustMu.Unlock()
	if cells != nil {
		return cells, nil
	}
	wls, err := r.workloads(apt.Type2)
	if err != nil {
		return nil, err
	}
	arrivals := make([][]float64, len(wls))
	for gi, w := range wls {
		if arrivals[gi], err = apt.PoissonArrivals(w, extStreamMeanGapMs, int64(1000+gi)); err != nil {
			return nil, err
		}
	}
	m := apt.PaperMachine(paperRate)
	var configs []apt.RunConfig
	for _, frac := range extRobustFracs {
		for _, p := range extRobustPolicies {
			for gi, w := range wls {
				noisy := apt.Perturbation{Noise: apt.Noise{Frac: frac, Seed: extRobustSeedBase + int64(gi)}}
				oracle := noisy
				oracle.Oracle = true
				configs = append(configs,
					apt.RunConfig{Workload: w, Machine: m, Policy: p, Options: &apt.Options{Arrivals: arrivals[gi], Perturb: &noisy}},
					apt.RunConfig{Workload: w, Machine: m, Policy: p, Options: &apt.Options{Arrivals: arrivals[gi], Perturb: &oracle}})
			}
		}
	}
	results, err := apt.RunBatch(context.TODO(), configs, nil)
	if err != nil {
		return nil, err
	}

	cells = make([]robustCell, 0, len(extRobustFracs)*len(extRobustPolicies))
	var sojourns []float64
	for len(results) > 0 {
		var cell robustCell
		sojourns = sojourns[:0]
		for range wls {
			noisy, oracle := results[0], results[1]
			results = results[2:]
			cell.makespanMs += noisy.MakespanMs
			cell.oracleMs += oracle.MakespanMs
			for i := range noisy.Kernels {
				sojourns = append(sojourns, noisy.Kernels[i].SojournMs)
			}
		}
		n := float64(len(wls))
		cell.makespanMs /= n
		cell.oracleMs /= n
		if cell.oracleMs > 0 {
			cell.regretPct = (cell.makespanMs - cell.oracleMs) / cell.oracleMs * 100
		}
		sort.Float64s(sojourns)
		cell.p99Ms = stats.Quantile(sojourns, 0.99)
		cells = append(cells, cell)
	}

	r.robustMu.Lock()
	if r.robustCells == nil {
		r.robustCells = cells
	}
	cells = r.robustCells
	r.robustMu.Unlock()
	return cells, nil
}

// ExtRobustness reports per-policy regret against the perfect-information
// oracle as uniform estimate error grows: the single number that answers
// "which policy survives bad estimates". Suite: Type-2 graphs with Poisson
// arrivals (mean gap 500 ms).
func (r *Runner) ExtRobustness() (*Artifact, error) {
	cells, err := r.robustSweep()
	if err != nil {
		return nil, err
	}
	var rows []report.RegretRow
	for fi, frac := range extRobustFracs {
		for pi, p := range extRobustPolicies {
			c := cells[fi*len(extRobustPolicies)+pi]
			rows = append(rows, report.RegretRow{
				Label:        fmt.Sprintf("%s @ ±%.0f%%", p.Name(), frac*100),
				MakespanMs:   c.makespanMs,
				OracleMs:     c.oracleMs,
				RegretPct:    c.regretPct,
				P99SojournMs: c.p99Ms,
			})
		}
	}
	t := report.RegretTable(
		"Extension. Regret vs the noise-free oracle under uniform estimate error (Type-2 suite, Poisson gap 500 ms, α=4 for APT).",
		rows)
	return &Artifact{ID: "ext-robustness", Caption: "Robustness: regret under estimate error", Table: t}, nil
}

// ExtRobustP99 plots the p99 sojourn tail against the estimate-error
// level, per policy — the open-system cost of scheduling on wrong
// estimates.
func (r *Runner) ExtRobustP99() (*Artifact, error) {
	cells, err := r.robustSweep()
	if err != nil {
		return nil, err
	}
	var x, order []string
	ys := map[string][]float64{}
	for _, p := range extRobustPolicies {
		order = append(order, p.Name())
	}
	for fi, frac := range extRobustFracs {
		x = append(x, fmt.Sprintf("%.0f%%", frac*100))
		for pi, p := range extRobustPolicies {
			ys[p.Name()] = append(ys[p.Name()], cells[fi*len(extRobustPolicies)+pi].p99Ms)
		}
	}
	fig, err := report.LatencyFigure(
		"Extension. p99 sojourn vs uniform estimate-error level (Type-2 suite, Poisson gap 500 ms).",
		"estimate error ±", "p99 sojourn ms", x, order, ys)
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "ext-robust-p99", Caption: "p99 sojourn vs estimate error", Figure: fig}, nil
}

// degradeScenario is one platform-degradation episode of ExtDegrade.
type degradeScenario struct {
	label  string
	events []apt.DegradeEvent
}

// extDegradeScenarios are the platform-degradation episodes of ExtDegrade.
// Windows are sized against the Type-2 suite's ~40 s makespans.
var extDegradeScenarios = []degradeScenario{
	{"GPU 2× slower, whole run", []apt.DegradeEvent{
		{Kind: apt.ProcSlowdown, Proc: 1, Factor: 2, StartMs: 0, EndMs: 1e9}}},
	{"GPU offline 10–30 s", []apt.DegradeEvent{
		{Kind: apt.ProcOffline, Proc: 1, StartMs: 10_000, EndMs: 30_000}}},
	{"all links 4× slower, whole run", []apt.DegradeEvent{
		{Kind: apt.LinkSlowdown, From: 0, To: 1, Factor: 4, StartMs: 0, EndMs: 1e9},
		{Kind: apt.LinkSlowdown, From: 0, To: 2, Factor: 4, StartMs: 0, EndMs: 1e9},
		{Kind: apt.LinkSlowdown, From: 1, To: 2, Factor: 4, StartMs: 0, EndMs: 1e9}}},
}

// ExtDegrade reports suite-average makespans when the platform degrades
// mid-run while every policy keeps trusting its static estimates: a
// processor slowing down, the paper system's GPU dropping out for a 20 s
// window, and the interconnect losing bandwidth. Cells show the absolute
// makespan and the relative slowdown vs the steady platform.
func (r *Runner) ExtDegrade() (*Artifact, error) {
	wls, err := r.workloads(apt.Type2)
	if err != nil {
		return nil, err
	}
	pols := extRobustPolicies
	t := &report.Table{
		Title:   "Extension. Type-2 avg makespan under platform degradation (α=4 for APT). Policies keep trusting their static estimates.",
		Headers: []string{"Scenario"},
		Notes: []string{
			"Cells: avg makespan ms (+slowdown vs steady platform).",
			"Proc 1 is the paper system's GPU.",
		},
	}
	for _, p := range pols {
		t.Headers = append(t.Headers, p.Name())
	}

	// One batch over the scenario × policy × graph grid; the first
	// scenario is the steady platform every other row is compared with.
	rows := append([]degradeScenario{{label: "steady platform"}}, extDegradeScenarios...)
	m := apt.PaperMachine(paperRate)
	var configs []apt.RunConfig
	for _, sc := range rows {
		var opts *apt.Options
		if len(sc.events) > 0 {
			opts = &apt.Options{Perturb: &apt.Perturbation{Events: sc.events}}
		}
		for _, p := range pols {
			for _, w := range wls {
				configs = append(configs, apt.RunConfig{Workload: w, Machine: m, Policy: p, Options: opts})
			}
		}
	}
	results, err := apt.RunBatch(context.TODO(), configs, nil)
	if err != nil {
		return nil, err
	}

	baseline := make([]float64, len(pols))
	for ri, sc := range rows {
		cells := []string{sc.label}
		for pi := range pols {
			cell := (ri*len(pols) + pi) * len(wls)
			avg := mean(results[cell:cell+len(wls)], makespan)
			if ri == 0 {
				baseline[pi] = avg
				cells = append(cells, report.Ms(avg))
				continue
			}
			slow := 0.0
			if b := baseline[pi]; b > 0 {
				slow = (avg - b) / b * 100
			}
			cells = append(cells, fmt.Sprintf("%s (%+.1f%%)", report.Ms(avg), slow))
		}
		t.MustAddRow(cells...)
	}
	return &Artifact{ID: "ext-degrade", Caption: "Makespan under platform degradation", Table: t}, nil
}
