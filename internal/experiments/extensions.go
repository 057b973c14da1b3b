package experiments

import (
	"context"
	"fmt"

	"repro/apt"
	"repro/internal/bounds"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Extension artifacts go beyond the thesis: they exercise the same code
// paths on questions the thesis raises but does not evaluate. IDs are
// prefixed "ext-" and are excluded from IDs(); cmd/experiments exposes
// them behind -ext.

// ExtPolicies extends Table 10 with the two related-work baselines the
// thesis discusses but does not tabulate: OLB (Braun et al.) and Adaptive
// Random (Wu et al.).
func (r *Runner) ExtPolicies() (*Artifact, error) {
	t, err := r.PolicyTable(apt.Type2, append(AllPolicies(4), apt.OLB(), apt.AR(metSeed)), makespan,
		"Extension. Type-2 makespans including OLB and Adaptive Random (α=4 for APT).")
	if err != nil {
		return nil, err
	}
	return &Artifact{ID: "ext-policies", Caption: "Type-2 makespans incl. OLB and AR", Table: t}, nil
}

// extStreamMeanGapMs paces the stream so that arrivals spread across a
// makespan-sized window: heavy contention at the start disappears and λ
// approaches the magnitudes the thesis reports.
const extStreamMeanGapMs = 500

// ExtStream re-runs the Table 12 comparison (Type-2 λ totals, α=4) with
// Poisson-paced arrivals instead of the thesis's submit-everything-at-zero
// model. With pacing, waiting no longer accumulates quadratically in queue
// length, so λ totals drop toward the same order as the makespan — the
// regime the thesis's λ tables live in.
func (r *Runner) ExtStream() (*Artifact, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Extension. Type-2 total λ (ms) with Poisson arrivals (mean gap %d ms, α=4 for APT).",
			extStreamMeanGapMs),
		Headers: []string{"Graph", "APT λ", "MET λ", "APT makespan", "MET makespan"},
		Notes:   []string{"Streaming arrivals are this repository's extension; the thesis submits whole streams at t=0."},
	}
	wls, err := r.workloads(apt.Type2)
	if err != nil {
		return nil, err
	}
	m := apt.PaperMachine(paperRate)
	var configs []apt.RunConfig
	for i, w := range wls {
		arrivals, err := apt.PoissonArrivals(w, extStreamMeanGapMs, int64(1000+i))
		if err != nil {
			return nil, err
		}
		opts := &apt.Options{Arrivals: arrivals}
		configs = append(configs,
			apt.RunConfig{Workload: w, Machine: m, Policy: apt.APT(4), Options: opts},
			apt.RunConfig{Workload: w, Machine: m, Policy: apt.MET(metSeed), Options: opts})
	}
	res, err := apt.RunBatch(context.TODO(), configs, nil)
	if err != nil {
		return nil, err
	}
	for i := range wls {
		a, met := res[2*i], res[2*i+1]
		t.MustAddRow(fmt.Sprintf("%d", i+1),
			report.Ms(a.LambdaTotalMs), report.Ms(met.LambdaTotalMs), report.Ms(a.MakespanMs), report.Ms(met.MakespanMs))
	}
	return &Artifact{ID: "ext-stream", Caption: "λ under streaming arrivals", Table: t}, nil
}

// extLatencyKernels and extLatencyGapMs size the open-system latency
// extension: a stream of independent catalog kernels arriving as a
// Poisson process with the given mean gap.
const (
	extLatencyKernels = 1000
	extLatencyGapMs   = 2000
)

// extLatencyPolicies are the per-row policies of ExtLatency.
var extLatencyPolicies = []apt.Policy{apt.APT(4), apt.MET(metSeed), apt.SPN(), apt.OLB(), apt.HEFT()}

// ExtLatency reports open-system sojourn latency percentiles (arrival →
// finish) per policy over a Poisson-paced stream of independent catalog
// kernels — the per-request view a production scheduler is judged on,
// which the thesis's closed makespan and λ tables cannot show.
func (r *Runner) ExtLatency() (*Artifact, error) {
	w, err := apt.GenerateKernelStream(extLatencyKernels, workload.DefaultSuiteSeed)
	if err != nil {
		return nil, err
	}
	arrivals, err := apt.PoissonArrivals(w, extLatencyGapMs, workload.DefaultSuiteSeed)
	if err != nil {
		return nil, err
	}
	m := apt.PaperMachine(paperRate)
	configs := make([]apt.RunConfig, len(extLatencyPolicies))
	for i, p := range extLatencyPolicies {
		configs[i] = apt.RunConfig{Workload: w, Machine: m, Policy: p, Options: &apt.Options{Arrivals: arrivals}}
	}
	results, err := apt.RunBatch(context.TODO(), configs, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]report.LatencyRow, len(results))
	for i, res := range results {
		kernels := res.Kernels()
		sojourns := make([]float64, len(kernels))
		for k := range kernels {
			sojourns[k] = kernels[k].SojournMs
		}
		rows[i] = report.LatencyRow{Label: extLatencyPolicies[i].Name(), S: stats.SummarizeInPlace(sojourns)}
	}
	t := report.LatencyTable(fmt.Sprintf(
		"Extension. Sojourn latency (ms) over a %d-kernel Poisson stream (mean gap %d ms, α=4 for APT).",
		extLatencyKernels, extLatencyGapMs), rows)
	t.Notes = []string{"Sojourn is arrival → finish; open-system streaming is this repository's extension."}
	return &Artifact{ID: "ext-latency", Caption: "Open-system sojourn latency percentiles", Table: t}, nil
}

// extNoiseFracs are the estimation-error levels swept by ExtNoise.
var extNoiseFracs = []float64{0, 0.1, 0.3, 0.5}

// ExtNoise studies robustness to estimation error: every policy keeps
// deciding with the clean lookup table while the simulated hardware runs
// at times perturbed by ±frac uniform noise. Reported cells are
// suite-average makespans (Type-2) normalised by the noisy hardware's own
// zero-error baseline per policy — the degradation attributable purely to
// deciding on stale estimates.
func (r *Runner) ExtNoise() (*Artifact, error) {
	t := &report.Table{
		Title:   "Extension. Type-2 avg makespan (ms) when actual times deviate ±frac from the estimates used for scheduling (α=4 for APT).",
		Headers: []string{"noise", "APT", "MET", "HEFT", "PEFT"},
		Notes:   []string{"Policies decide on the clean Table 14; execution follows a perturbed copy."},
	}
	pols := []apt.Policy{apt.APT(4), apt.MET(metSeed), apt.HEFT(), apt.PEFT()}
	wls, err := r.workloads(apt.Type2)
	if err != nil {
		return nil, err
	}
	m := apt.PaperMachine(paperRate)
	var configs []apt.RunConfig
	for _, frac := range extNoiseFracs {
		for _, p := range pols {
			for gi, w := range wls {
				var opts *apt.Options
				if frac > 0 {
					opts = &apt.Options{Perturb: &apt.Perturbation{Noise: apt.Noise{Frac: frac, Seed: int64(40 + gi)}}}
				}
				configs = append(configs, apt.RunConfig{Workload: w, Machine: m, Policy: p, Options: opts})
			}
		}
	}
	results, err := apt.RunBatch(context.TODO(), configs, nil)
	if err != nil {
		return nil, err
	}
	for fi, frac := range extNoiseFracs {
		row := []string{fmt.Sprintf("%.0f%%", frac*100)}
		for pi := range pols {
			cell := (fi*len(pols) + pi) * len(wls)
			row = append(row, report.Ms(mean(results[cell:cell+len(wls)], makespan)))
		}
		t.MustAddRow(row...)
	}
	return &Artifact{ID: "ext-noise", Caption: "Robustness to estimation error", Table: t}, nil
}

// ExtBounds measures optimality gaps on workloads small enough for the
// exact solver: ten random independent 14-kernel sets from the paper
// catalog, reporting each policy's makespan as a percentage above the true
// optimum (transfers play no role in independent sets, so the exact
// partition optimum applies to the simulated makespans exactly).
func (r *Runner) ExtBounds() (*Artifact, error) {
	t := &report.Table{
		Title:   "Extension. Makespan vs exact optimum on 14-kernel independent workloads (gap %, α=4 for APT).",
		Headers: []string{"Workload", "Optimal ms", "APT gap%", "MET gap%", "SPN gap%", "HEFT gap%"},
	}
	pols := []apt.Policy{apt.APT(4), apt.MET(metSeed), apt.SPN(), apt.HEFT()}
	m := apt.PaperMachine(paperRate)
	for trial := 0; trial < 10; trial++ {
		// The exact solver reads the cost oracle, which the facade does not
		// expose, so the same seeded set is built twice: as a graph for the
		// optimum and as a workload for the policies.
		seed := int64(7_000_000 + trial)
		g, err := workload.Independent(14, seed)
		if err != nil {
			return nil, err
		}
		costs, err := sim.PrepareCosts(g, platform.PaperSystem(paperRate), lut.Paper(), sim.CostConfig{})
		if err != nil {
			return nil, err
		}
		opt, err := bounds.OptimalIndependent(costs)
		if err != nil {
			return nil, err
		}
		w, err := apt.GenerateKernelStream(14, seed)
		if err != nil {
			return nil, err
		}
		results, err := apt.Compare(w, m, pols)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", trial+1), report.Ms(opt)}
		for _, res := range results {
			gap := 0.0
			if opt > 0 {
				gap = (res.MakespanMs - opt) / opt * 100
			}
			row = append(row, fmt.Sprintf("%.1f", gap))
		}
		t.MustAddRow(row...)
	}
	return &Artifact{ID: "ext-bounds", Caption: "Optimality gaps on small independent workloads", Table: t}, nil
}
