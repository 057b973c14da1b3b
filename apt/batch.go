package apt

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/perturb"
	"repro/internal/sim"
)

// RunConfig describes one simulation of a batch: the same inputs Run takes,
// as a value. A nil Options selects the defaults.
type RunConfig struct {
	Workload *Workload
	Machine  *Machine
	Policy   Policy
	Options  *Options
}

// BatchOptions tunes RunBatch.
type BatchOptions struct {
	// Workers bounds the concurrent simulations; <= 0 selects one worker
	// per available CPU.
	Workers int
}

// ConfigError is one failed config of a RunBatch, tagged with its index
// into the configs slice.
type ConfigError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *ConfigError) Error() string { return fmt.Sprintf("apt: config %d: %v", e.Index, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e *ConfigError) Unwrap() error { return e.Err }

// BatchError joins the failures of a RunBatch. Every entry is a
// *ConfigError; errors.As recovers them, errors.Is each underlying cause.
type BatchError struct {
	// Errs holds one *ConfigError per failed config, in config order.
	Errs []error
}

// Error implements error.
func (b *BatchError) Error() string {
	if len(b.Errs) == 1 {
		return b.Errs[0].Error()
	}
	return fmt.Sprintf("%v (and %d more batch errors)", b.Errs[0], len(b.Errs)-1)
}

// Unwrap exposes the individual failures to errors.Is/As.
func (b *BatchError) Unwrap() []error { return b.Errs }

// RunBatch simulates every config concurrently across a bounded worker pool
// and returns the results in config order: results[i] corresponds to
// configs[i]. Every simulation is deterministic, so the results are
// identical to calling Run sequentially over the same configs — RunBatch
// only changes the wall-clock cost of sweeps that run thousands of
// (policy, α, workload, machine) combinations. Workers reuse their
// engine state between runs, so large batches also allocate far less than
// repeated Run calls.
//
// Workers additionally memoise prepared state across the configs they
// execute: the cost oracle of a (workload, machine, lookup table) triple, a
// noise-perturbed lookup table, and the policy instance per policy value.
// Sweeps that revisit the same graph — α grids, arrival-gap scans,
// robustness fracs — therefore skip re-deriving cost tables and, for
// static policies, the whole Prepare phase (HEFT/PEFT plans and OCT tables
// are pure functions of the cost oracle; see the policy package). Caching
// never changes results, only wall-clock time: cache keys capture every
// input the cached artifact depends on.
//
// Cancelling the context stops unstarted simulations (in-flight ones
// complete). Failed or cancelled configs leave a nil entry in the results
// slice and contribute a *ConfigError to the returned *BatchError;
// successful results are returned either way.
func RunBatch(ctx context.Context, configs []RunConfig, opts *BatchOptions) ([]*Result, error) {
	if opts == nil {
		opts = &BatchOptions{}
	}
	// The whole per-config pipeline — cost preparation, simulation,
	// validation, result assembly — runs inside the pool, on a per-worker
	// reusable engine.
	results := make([]*Result, len(configs))
	errs := sim.RunPool(ctx, len(configs), opts.Workers, func(i int, w *sim.Worker) error {
		res, err := runOne(w, configs[i])
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})

	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &ConfigError{Index: i, Err: err})
		}
	}
	if len(failed) > 0 {
		return results, &BatchError{Errs: failed}
	}
	return results, nil
}

// runOne executes one config: prepare, simulate, validate, assemble. A
// batch worker runs it on its reusable engine and shares prepared state
// through its memo; Run passes a nil worker and takes a pooled engine.
func runOne(w *sim.Worker, cfg RunConfig) (*Result, error) {
	run, err := prepareRun(cfg, w)
	if err != nil {
		return nil, err
	}
	var res *sim.Result
	if w == nil {
		res, err = sim.Run(run.costs, run.pol, run.opt)
	} else {
		res, err = w.Runner().Run(run.costs, run.pol, run.opt)
	}
	if err != nil {
		return nil, err
	}
	if err := res.Validate(cfg.Workload.g, cfg.Machine.sys); err != nil {
		return nil, fmt.Errorf("internal error, invalid schedule: %w", err)
	}
	return assemble(res, cfg.Workload, cfg.Machine, run.pol), nil
}

// preparedRun is one config ready for the engine: the estimate cost
// oracle, the policy instance (kept so APT allocation stats can be read
// back) and the engine options. Policies are stateful (Prepare mutates
// them), so concurrent runs never share an instance: each batch worker
// memoises its own.
type preparedRun struct {
	costs *sim.Costs
	pol   sim.Policy
	opt   sim.Options
}

// costsMemoKey identifies one prepared cost oracle in a worker's memo. It
// captures every input PrepareCosts takes apart from the cost config,
// which is always the default: graph, platform and the exact lookup table
// (by identity — tables are immutable and lut.Paper returns a singleton).
type costsMemoKey struct {
	g   *dfg.Graph
	m   *Machine
	tab *lut.Table
}

// tableMemoKey identifies one noise-perturbed lookup table: the base table
// plus the canonical encoding of the noise that produced it (Apply is
// deterministic per Noise).
type tableMemoKey struct {
	tab   *lut.Table
	noise string
}

// policyMemoKey identifies one policy instance per policy value. Reusing
// the instance across a worker's runs lets static policies hit their
// Prepare memoisation when the cost oracle repeats too.
type policyMemoKey struct{ p Policy }

// memoCosts returns the prepared cost oracle for (g, m, tab), from the
// worker's memo when one is supplied.
func memoCosts(w *sim.Worker, g *dfg.Graph, m *Machine, tab *lut.Table) (*sim.Costs, error) {
	if w == nil {
		return sim.PrepareCosts(g, m.sys, tab, sim.CostConfig{})
	}
	v, err := w.Memo(costsMemoKey{g: g, m: m, tab: tab}, func() (any, error) {
		return sim.PrepareCosts(g, m.sys, tab, sim.CostConfig{})
	})
	if err != nil {
		return nil, err
	}
	return v.(*sim.Costs), nil
}

// prepareRun turns one RunConfig into a preparedRun. A non-nil worker
// supplies the prepared-state memo; Run passes nil.
func prepareRun(cfg RunConfig, w *sim.Worker) (preparedRun, error) {
	if cfg.Workload == nil || cfg.Machine == nil {
		return preparedRun{}, fmt.Errorf("run requires a workload and a machine")
	}
	opts := cfg.Options
	if opts == nil {
		opts = &Options{}
	}
	if err := validateArrivals(cfg.Workload.NumKernels(), opts.Arrivals); err != nil {
		return preparedRun{}, err
	}
	simOpt := sim.Options{
		SchedOverheadMs: opts.SchedOverheadMs,
		ArrivalTimes:    opts.Arrivals,
	}

	// A perturbation splits estimation from reality: the estimate table the
	// policy decides with, the actual table execution follows, and a
	// degradation schedule stretching actual durations over time.
	estTab := lut.Paper()
	if p := opts.Perturb; p != nil {
		actualTab, err := memoNoisyTable(w, estTab, p.Noise)
		if err != nil {
			return preparedRun{}, err
		}
		if p.Oracle {
			// Perfect information: the policy sees the actual table, so no
			// estimate/actual split remains (degradation still applies).
			estTab = actualTab
		} else if actualTab != estTab {
			actual, err := memoCosts(w, cfg.Workload.g, cfg.Machine, actualTab)
			if err != nil {
				return preparedRun{}, err
			}
			simOpt.ActualCosts = actual
		}
		if len(p.Events) > 0 {
			if err := checkEventProcs(p.Events, cfg.Machine); err != nil {
				return preparedRun{}, err
			}
			sched, err := perturb.NewSchedule(internalEvents(p.Events))
			if err != nil {
				return preparedRun{}, err
			}
			simOpt.Degrade = sched
		}
	}

	costs, err := memoCosts(w, cfg.Workload.g, cfg.Machine, estTab)
	if err != nil {
		return preparedRun{}, err
	}
	pol, err := memoPolicy(w, cfg.Policy)
	if err != nil {
		return preparedRun{}, err
	}
	return preparedRun{costs: costs, pol: pol, opt: simOpt}, nil
}

// memoNoisyTable returns the actual-time table a Noise produces from tab,
// from the worker's memo when one is supplied. The identity noise returns
// tab itself (Apply's contract), keeping the no-perturbation fast path.
func memoNoisyTable(w *sim.Worker, tab *lut.Table, n Noise) (*lut.Table, error) {
	if w == nil {
		return n.Apply(tab)
	}
	v, err := w.Memo(tableMemoKey{tab: tab, noise: noiseKey(n)}, func() (any, error) {
		return n.Apply(tab)
	})
	if err != nil {
		return nil, err
	}
	return v.(*lut.Table), nil
}

// memoPolicy returns the instantiated policy for p, from the worker's memo
// when one is supplied. Policies fully re-Prepare per run, so a worker
// reusing one instance sequentially is exactly as deterministic as fresh
// instances — but static policies can then reuse their prepared plans.
func memoPolicy(w *sim.Worker, p Policy) (sim.Policy, error) {
	if w == nil {
		return p.instantiate()
	}
	v, err := w.Memo(policyMemoKey{p: p}, func() (any, error) {
		pol, err := p.instantiate()
		if err != nil {
			return nil, err
		}
		return pol, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(sim.Policy), nil
}

// assemble converts an engine result into the public Result: the makespan,
// the λ summary and APT's allocation counts. The per-kernel rows are built
// on demand by Result.Kernels.
func assemble(res *sim.Result, w *Workload, m *Machine, pol sim.Policy) *Result {
	out := &Result{
		Policy:        res.Policy,
		MakespanMs:    res.MakespanMs,
		LambdaTotalMs: res.Lambda.TotalMs,
		LambdaAvgMs:   res.Lambda.AvgMs,
		LambdaStdMs:   res.Lambda.StdMs,
		res:           res,
		sys:           m.sys,
		wl:            w,
	}
	if a, ok := pol.(*core.APT); ok {
		out.Alt = a.Stats()
	} else {
		out.Alt.ByKernel = map[string]int{}
	}
	return out
}
