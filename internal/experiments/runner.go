// Package experiments regenerates every table and figure of the thesis's
// evaluation chapter (Ch. 4 and the appendices). Each paper artifact has a
// driver that returns a report.Table, report.Figure or text block; the
// cmd/experiments binary and the repository's benchmarks call the same
// drivers.
//
// The harness is built on the public library: suites come from
// apt.GenerateSuite, policies are apt.Policy values, and every simulation
// runs through apt.Run or apt.RunBatch — the pipeline the library's users
// and the paper-sweep benchmark run. A Runner owns the workload suites and
// memoises each (graph type, link rate, policy) suite of results, so
// artifacts that share underlying experiments (most of them do) pay for
// each simulation once. Batches fan out across all available CPUs; every
// simulation is deterministic, so parallelism never changes results.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/apt"
	"repro/internal/workload"
)

// Config parameterises a Runner. The zero value selects the paper settings.
type Config struct {
	// Seed drives the workload suites (default workload.DefaultSuiteSeed).
	Seed int64
}

// Alphas are the flexibility factors the paper sweeps (Figures 7, 9, 11,
// 12 and Table 13).
var Alphas = []float64{1.5, 2, 4, 8, 16}

// Rates are the PCIe bandwidths in GB/s the paper sweeps: x8 (4 GB/s) and
// x16 (8 GB/s).
var Rates = []float64{4, 8}

// paperRate is the transfer rate (PCIe 2.0 x8) used by the paper's
// non-sweep tables.
const paperRate = 4

// metSeed fixes the random visiting order of MET and Adaptive Random.
const metSeed = 1

// AllPolicies returns every policy column of the paper's Tables 8–12, in
// the paper's column order, with APT at flexibility factor alpha.
func AllPolicies(alpha float64) []apt.Policy {
	return []apt.Policy{apt.APT(alpha), apt.MET(metSeed), apt.SPN(), apt.SS(), apt.AG(), apt.HEFT(), apt.PEFT()}
}

// DynamicPolicies are the dynamic baselines eligible to be the
// "second-best dynamic policy" of Table 13.
var DynamicPolicies = []apt.Policy{apt.MET(metSeed), apt.SPN(), apt.SS(), apt.AG()}

type suiteKey struct {
	typ  apt.GraphType
	rate float64
	pol  apt.Policy
}

// Runner memoises simulation runs over the paper's workload suites.
type Runner struct {
	cfg Config

	mu     sync.Mutex
	suites map[apt.GraphType][]*apt.Workload
	cache  map[suiteKey][]*apt.Result

	// robustCells memoises the robustness noise sweep (robustness.go):
	// ext-robustness and ext-robust-p99 render different views of the same
	// hundreds of simulations, so the sweep runs once per Runner.
	robustMu    sync.Mutex
	robustCells []robustCell // frac-major, then policy
}

// NewRunner returns a Runner with the given configuration.
func NewRunner(cfg Config) *Runner {
	if cfg.Seed == 0 {
		cfg.Seed = workload.DefaultSuiteSeed
	}
	return &Runner{
		cfg:    cfg,
		suites: map[apt.GraphType][]*apt.Workload{},
		cache:  map[suiteKey][]*apt.Result{},
	}
}

// workloads returns (generating on first use) the ten-experiment suite for
// a graph type.
func (r *Runner) workloads(typ apt.GraphType) ([]*apt.Workload, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if wls, ok := r.suites[typ]; ok {
		return wls, nil
	}
	wls, err := apt.GenerateSuite(typ, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	r.suites[typ] = wls
	return wls, nil
}

// Suite runs one policy over all ten experiments of a suite on the paper
// machine at the given link rate and returns the results in experiment
// order. The first call for a (graph type, rate, policy) runs the suite as
// one apt.RunBatch; later calls return the memoised results.
func (r *Runner) Suite(typ apt.GraphType, rate float64, pol apt.Policy) ([]*apt.Result, error) {
	key := suiteKey{typ, rate, pol}
	r.mu.Lock()
	out, ok := r.cache[key]
	r.mu.Unlock()
	if ok {
		return out, nil
	}
	wls, err := r.workloads(typ)
	if err != nil {
		return nil, err
	}
	m := apt.PaperMachine(rate)
	configs := make([]apt.RunConfig, len(wls))
	for i, w := range wls {
		configs[i] = apt.RunConfig{Workload: w, Machine: m, Policy: pol}
	}
	out, err = apt.RunBatch(context.TODO(), configs, nil)
	if err != nil {
		return nil, fmt.Errorf("%s on the %v suite: %w", pol.Name(), typ, err)
	}
	r.mu.Lock()
	r.cache[key] = out
	r.mu.Unlock()
	return out, nil
}

// metric selects what a table or figure reports of one run.
type metric func(*apt.Result) float64

func makespan(res *apt.Result) float64    { return res.MakespanMs }
func lambdaTotal(res *apt.Result) float64 { return res.LambdaTotalMs }

// mean averages a metric over a suite's results.
func mean(outs []*apt.Result, m metric) float64 {
	var sum float64
	for _, o := range outs {
		sum += m(o)
	}
	return sum / float64(len(outs))
}
