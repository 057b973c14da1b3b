package bounds

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Lower aggregates the valid makespan lower bounds for a costed workload:
// the oracle OptimalIndependent's result must not undercut.
type Lower struct {
	// CriticalPathMs is the longest dependency chain with every kernel on
	// its fastest processor and free transfers.
	CriticalPathMs float64
	// WorkMs is total best-case work divided by the processor count: even
	// perfectly balanced, some processor carries at least this much.
	WorkMs float64
	// MaxKernelMs is the largest single best-case execution time; no
	// schedule finishes before its longest kernel.
	MaxKernelMs float64
}

// Best returns the tightest (largest) of the bounds.
func (l Lower) Best() float64 {
	best := l.CriticalPathMs
	if l.WorkMs > best {
		best = l.WorkMs
	}
	if l.MaxKernelMs > best {
		best = l.MaxKernelMs
	}
	return best
}

// LowerBounds computes all bounds for the costed workload.
func LowerBounds(c *sim.Costs) Lower {
	g := c.Graph()
	fastest := func(k dfg.Kernel) float64 {
		_, ms := c.BestProc(k.ID)
		return ms
	}
	cp, _ := g.CriticalPath(fastest)
	var total, max float64
	for _, k := range g.Kernels() {
		ms := fastest(k)
		total += ms
		if ms > max {
			max = ms
		}
	}
	return Lower{
		CriticalPathMs: cp,
		WorkMs:         total / float64(c.System().NumProcs()),
		MaxKernelMs:    max,
	}
}

func tinyTable(t *testing.T) *lut.Table {
	t.Helper()
	tab, err := lut.New([]lut.Entry{
		{Kernel: "a", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 10, platform.GPU: 2, platform.FPGA: 50}},
		{Kernel: "b", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 4, platform.GPU: 8, platform.FPGA: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func independentGraph(t *testing.T, names ...string) *dfg.Graph {
	t.Helper()
	b := dfg.NewBuilder()
	for _, n := range names {
		b.AddKernel(dfg.Kernel{Name: n, DataElems: 1000})
	}
	return b.MustBuild()
}

func costs(t *testing.T, g *dfg.Graph, tab *lut.Table) *sim.Costs {
	t.Helper()
	c, err := sim.PrepareCosts(g, platform.PaperSystem(4), tab, sim.CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLowerBoundsSimple(t *testing.T) {
	g := independentGraph(t, "a", "a", "b")
	c := costs(t, g, tinyTable(t))
	lb := LowerBounds(c)
	// Best execs: 2, 2, 1. Work bound: 5/3. Max kernel: 2. CP: 2.
	if math.Abs(lb.WorkMs-5.0/3) > 1e-9 {
		t.Errorf("WorkMs = %v, want 5/3", lb.WorkMs)
	}
	if lb.MaxKernelMs != 2 || lb.CriticalPathMs != 2 {
		t.Errorf("bounds = %+v", lb)
	}
	if lb.Best() != 2 {
		t.Errorf("Best = %v, want 2", lb.Best())
	}
}

func TestLowerBoundsChain(t *testing.T) {
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	k1 := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(k0, k1)
	g := b.MustBuild()
	c := costs(t, g, tinyTable(t))
	lb := LowerBounds(c)
	// Chain of best execs 2 then 1: CP = 3 dominates.
	if lb.CriticalPathMs != 3 || lb.Best() != 3 {
		t.Errorf("bounds = %+v, want CP 3", lb)
	}
}

func TestOptimalIndependentExactSmall(t *testing.T) {
	// Two "a" kernels: optimum is one on GPU (2) and one on CPU (10)? No —
	// serialising both on the GPU gives 4, better. Optimal partition: both
	// on GPU => 4.
	g := independentGraph(t, "a", "a")
	c := costs(t, g, tinyTable(t))
	opt, err := OptimalIndependent(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 4 {
		t.Errorf("optimal = %v, want 4", opt)
	}
	// Mixed: a (GPU 2), b (FPGA 1): run in parallel => 2.
	g2 := independentGraph(t, "a", "b")
	c2 := costs(t, g2, tinyTable(t))
	opt2, err := OptimalIndependent(c2)
	if err != nil {
		t.Fatal(err)
	}
	if opt2 != 2 {
		t.Errorf("optimal = %v, want 2", opt2)
	}
}

func TestOptimalIndependentRejects(t *testing.T) {
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	k1 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	b.AddEdge(k0, k1)
	g := b.MustBuild()
	if _, err := OptimalIndependent(costs(t, g, tinyTable(t))); err == nil {
		t.Error("graph with edges accepted")
	}
	names := make([]string, MaxExactKernels+1)
	for i := range names {
		names[i] = "a"
	}
	big := independentGraph(t, names...)
	if _, err := OptimalIndependent(costs(t, big, tinyTable(t))); err == nil {
		t.Error("oversized graph accepted")
	}
}

func TestOptimalEmptyGraph(t *testing.T) {
	g := dfg.NewBuilder().MustBuild()
	c, err := sim.PrepareCosts(g, platform.PaperSystem(4), tinyTable(t), sim.CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OptimalIndependent(c)
	if err != nil || opt != 0 {
		t.Errorf("empty optimum = %v/%v, want 0/nil", opt, err)
	}
}

// Property: on random independent workloads from the paper catalog,
// optimal >= every lower bound, and every policy's makespan >= optimal.
func TestOptimalSandwichProperty(t *testing.T) {
	cat := workload.PaperCatalog()
	sys := platform.PaperSystem(4)
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%uint8(MaxExactKernels-2)) + 2
		r := rand.New(rand.NewSource(seed))
		b := dfg.NewBuilder()
		for i := 0; i < n; i++ {
			spec := cat.RandomSpec(r)
			b.AddKernel(dfg.Kernel{Name: spec.Name, DataElems: spec.DataElems})
		}
		g := b.MustBuild()
		c, err := sim.PrepareCosts(g, sys, lut.Paper(), sim.CostConfig{})
		if err != nil {
			return false
		}
		opt, err := OptimalIndependent(c)
		if err != nil {
			return false
		}
		lb := LowerBounds(c)
		if opt < lb.Best()-1e-6 {
			return false
		}
		for _, pol := range []sim.Policy{core.New(4), policy.NewMET(1), policy.NewSPN(), policy.NewHEFT()} {
			res, err := sim.Run(c, pol, sim.Options{})
			if err != nil {
				return false
			}
			if res.MakespanMs < opt-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Exhaustive cross-check of the branch-and-bound against brute force for
// very small inputs.
func TestOptimalMatchesBruteForce(t *testing.T) {
	tab := tinyTable(t)
	sys := platform.PaperSystem(4)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := r.Intn(6) + 1
		b := dfg.NewBuilder()
		for i := 0; i < n; i++ {
			name := "a"
			if r.Intn(2) == 1 {
				name = "b"
			}
			b.AddKernel(dfg.Kernel{Name: name, DataElems: 1000})
		}
		g := b.MustBuild()
		c, err := sim.PrepareCosts(g, sys, tab, sim.CostConfig{})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := OptimalIndependent(c)
		if err != nil {
			t.Fatal(err)
		}
		bf := bruteForce(c, n, sys.NumProcs())
		if math.Abs(opt-bf) > 1e-9 {
			t.Fatalf("trial %d: branch-and-bound %v != brute force %v", trial, opt, bf)
		}
	}
}

func bruteForce(c *sim.Costs, n, np int) float64 {
	best := math.Inf(1)
	assign := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			load := make([]float64, np)
			for k, p := range assign {
				load[p] += c.Exec(dfg.KernelID(k), platform.ProcID(p))
			}
			m := 0.0
			for _, l := range load {
				if l > m {
					m = l
				}
			}
			if m < best {
				best = m
			}
			return
		}
		for p := 0; p < np; p++ {
			assign[i] = p
			rec(i + 1)
		}
	}
	rec(0)
	return best
}
