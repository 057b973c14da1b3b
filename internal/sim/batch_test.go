package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/workload"
)

// suiteCosts prepares cost oracles over the first n suite graphs.
func suiteCosts(t testing.TB, n int) []*Costs {
	t.Helper()
	graphs := workload.MustSuite(workload.Type2, workload.DefaultSuiteSeed)
	if n > len(graphs) {
		n = len(graphs)
	}
	out := make([]*Costs, n)
	for i := 0; i < n; i++ {
		c, err := PrepareCosts(graphs[i], platform.PaperSystem(4), lut.Paper(), CostConfig{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c
	}
	return out
}

// leanGreedy is an allocation-free greedy policy used to exercise the
// append-style accessors and the warm engine path.
type leanGreedy struct {
	ready []dfg.KernelID
	procs []platform.ProcID
	out   []Assignment
}

func (g *leanGreedy) Name() string           { return "lean-greedy" }
func (g *leanGreedy) Prepare(c *Costs) error { return nil }
func (g *leanGreedy) Select(st *State) []Assignment {
	g.procs = st.AppendAvailableProcs(g.procs[:0])
	g.ready = st.AppendReady(g.ready[:0])
	procs := g.procs
	out := g.out[:0]
	for _, k := range g.ready {
		if len(procs) == 0 {
			break
		}
		out = append(out, Assignment{Kernel: k, Proc: procs[0]})
		procs = procs[1:]
	}
	g.out = out
	return out
}

// poolRuns runs every (costs, policy, options) triple through RunPool on
// the given worker count, the cost oracle fetched through each worker's
// memo, and returns the results and per-index errors in input order.
func poolRuns(ctx context.Context, costs []*Costs, pols []Policy, opts []Options, workers int) ([]*Result, []error) {
	results := make([]*Result, len(pols))
	errs := RunPool(ctx, len(pols), workers, func(i int, w *Worker) error {
		c, err := w.Memo(i%len(costs), func() (any, error) { return costs[i%len(costs)], nil })
		if err != nil {
			return err
		}
		res, err := w.Runner().Run(c.(*Costs), pols[i], opts[i])
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	return results, errs
}

func TestRunPoolMatchesSequential(t *testing.T) {
	costs := suiteCosts(t, 4)
	// Run i simulates costs[i%4]: the lean greedy policy first, then the
	// out-of-order static one with a scheduling overhead, so each worker's
	// memo hits on the second visit of a graph.
	build := func() ([]Policy, []Options) {
		var pols []Policy
		var opts []Options
		for range costs {
			pols = append(pols, &leanGreedy{})
			opts = append(opts, Options{})
		}
		for range costs {
			pols = append(pols, &outOfOrderStatic{})
			opts = append(opts, Options{SchedOverheadMs: 0.25})
		}
		return pols, opts
	}

	pols, opts := build()
	want := make([]*Result, len(pols))
	for i := range pols {
		res, err := Run(costs[i%len(costs)], pols[i], opts[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, workers := range []int{1, 2, 7} {
		pols, opts := build()
		got, errs := poolRuns(context.Background(), costs, pols, opts, workers)
		for i := range want {
			if errs[i] != nil {
				t.Fatalf("workers=%d: run %d: %v", workers, i, errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: run %d differs from sequential Run:\ngot  %+v\nwant %+v",
					workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunPoolErrorKeepsOtherResults(t *testing.T) {
	costs := suiteCosts(t, 2)
	results, errs := poolRuns(context.Background(), []*Costs{costs[0], nil, costs[1]},
		[]Policy{&leanGreedy{}, &leanGreedy{}, &leanGreedy{}}, make([]Options, 3), 0)
	if errs[1] == nil {
		t.Fatal("want an error for the run without a cost oracle")
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid runs failed: %v, %v", errs[0], errs[2])
	}
	if results[0] == nil || results[2] == nil {
		t.Error("successful runs should still report results")
	}
	if results[1] != nil {
		t.Error("failed run should leave a nil result")
	}
}

func TestRunPoolCancelled(t *testing.T) {
	costs := suiteCosts(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, errs := poolRuns(ctx, costs, []Policy{&leanGreedy{}, &leanGreedy{}}, make([]Options, 2), 0)
	for i := range results {
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("run %d: want context.Canceled, got %v", i, errs[i])
		}
		if results[i] != nil {
			t.Errorf("run %d: want nil result after pre-cancelled context", i)
		}
	}
}

func TestRunnerReuseMatchesFreshRuns(t *testing.T) {
	costs := suiteCosts(t, 3)
	r := NewRunner()
	for round := 0; round < 2; round++ {
		// Vary graph size across calls so buffer reuse has to re-dimension.
		for i := len(costs) - 1; i >= 0; i-- {
			warm, err := r.Run(costs[i], &leanGreedy{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Run(costs[i], &leanGreedy{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, fresh) {
				t.Fatalf("round %d graph %d: warm Runner result differs from fresh Run", round, i)
			}
			if err := warm.Validate(costs[i].Graph(), costs[i].System()); err != nil {
				t.Errorf("round %d graph %d: %v", round, i, err)
			}
		}
	}
}

// outOfOrderStatic assigns every kernel of the graph at time zero, grouped
// by processor (kernel k goes to proc k mod np, all of proc 0's kernels
// first, then proc 1's, ...). Within each processor the queue stays in
// ascending kernel-ID order — a valid topological order for the generated
// suites — but the commit sequence takes the time-zero ready kernels far
// out of FCFS order and commits the rest before they are ready.
type outOfOrderStatic struct {
	done bool
	np   int
}

func (p *outOfOrderStatic) Name() string { return "out-of-order-static" }
func (p *outOfOrderStatic) Prepare(c *Costs) error {
	p.np = c.System().NumProcs()
	return nil
}
func (p *outOfOrderStatic) Select(st *State) []Assignment {
	if p.done {
		return nil
	}
	p.done = true
	n := st.Graph().NumKernels()
	out := make([]Assignment, 0, n)
	for proc := 0; proc < p.np; proc++ {
		for k := proc; k < n; k += p.np {
			out = append(out, Assignment{
				Kernel: dfg.KernelID(k),
				Proc:   platform.ProcID(proc),
			})
		}
	}
	return out
}

func TestCommitOutOfReadyOrder(t *testing.T) {
	for _, typ := range []workload.GraphType{workload.Type1, workload.Type2} {
		g := workload.MustSuite(typ, workload.DefaultSuiteSeed)[0]
		c, err := PrepareCosts(g, platform.PaperSystem(4), lut.Paper(), CostConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, &outOfOrderStatic{}, Options{})
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if err := res.Validate(g, c.System()); err != nil {
			t.Errorf("%v: %v", typ, err)
		}
	}
}

// TestEngineWarmRunAllocs pins the allocation budget of a warm engine run:
// once a Runner's buffers reach their high-water mark, a run may allocate
// only what escapes into the Result (placements, proc stats, the Result
// itself, the State handle and λ aggregation).
func TestEngineWarmRunAllocs(t *testing.T) {
	c := suiteCosts(t, 1)[0]
	r := NewRunner()
	pol := &leanGreedy{}
	if _, err := r.Run(c, pol, Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.Run(c, pol, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// 157-kernel graph: placements + ProcStats + Result + State + stats
	// scratch. The budget is deliberately loose against GC accounting
	// noise but far below the seed's ~1000 allocations per run.
	if allocs > 16 {
		t.Errorf("warm engine run allocated %v times, want <= 16", allocs)
	}
}

// accessorProbe measures, from inside a live simulation, the allocation
// cost of the append-style State accessors with reused buffers.
type accessorProbe struct {
	leanGreedy
	log                                []dfg.KernelID
	readyAllocs, procAllocs, logAllocs float64
	measured                           bool
}

func (p *accessorProbe) Name() string { return "accessor-probe" }
func (p *accessorProbe) Select(st *State) []Assignment {
	if p.ready = st.AppendReady(p.ready[:0]); !p.measured && len(p.ready) > 0 {
		p.measured = true
		p.readyAllocs = testing.AllocsPerRun(50, func() {
			p.ready = st.AppendReady(p.ready[:0])
		})
		p.procAllocs = testing.AllocsPerRun(50, func() {
			p.procs = st.AppendAvailableProcs(p.procs[:0])
		})
		p.logAllocs = testing.AllocsPerRun(50, func() {
			p.log = st.ReadyLog()
		})
	}
	return p.leanGreedy.Select(st)
}

func TestAppendAccessorsAllocFree(t *testing.T) {
	c := suiteCosts(t, 1)[0]
	probe := &accessorProbe{}
	// Warm the probe's buffers with one run, then measure on a second.
	if _, err := Run(c, probe, Options{}); err != nil {
		t.Fatal(err)
	}
	if !probe.measured {
		t.Fatal("probe never measured")
	}
	if probe.readyAllocs != 0 {
		t.Errorf("AppendReady allocated %v times per call, want 0", probe.readyAllocs)
	}
	if probe.procAllocs != 0 {
		t.Errorf("AppendAvailableProcs allocated %v times per call, want 0", probe.procAllocs)
	}
	if probe.logAllocs != 0 {
		t.Errorf("ReadyLog allocated %v times per call, want 0", probe.logAllocs)
	}
}

// BenchmarkRunnerWarm measures the warm engine path: same workload as
// BenchmarkEngineRun but with a reused Runner and an allocation-free
// policy.
func BenchmarkRunnerWarm(b *testing.B) {
	c := benchGraphCosts(b)
	r := NewRunner()
	pol := &leanGreedy{}
	if _, err := r.Run(c, pol, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(c, pol, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
