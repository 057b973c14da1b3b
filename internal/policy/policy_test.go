package policy

import (
	"math"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testEnv mirrors the hand-checkable table used by the sim tests:
//
//	kernel "a": CPU 10, GPU 2, FPGA 50   (best GPU)
//	kernel "b": CPU 4,  GPU 8, FPGA 1    (best FPGA)
type testEnv struct {
	sys *platform.System
	tab *lut.Table
}

func newEnv(t *testing.T) testEnv {
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
	return testEnv{sys: platform.PaperSystem(4), tab: tab}
}

func (e testEnv) costs(t *testing.T, g *dfg.Graph) *sim.Costs {
	t.Helper()
	c, err := sim.PrepareCosts(g, e.sys, e.tab, sim.CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (e testEnv) run(t *testing.T, g *dfg.Graph, pol sim.Policy) *sim.Result {
	t.Helper()
	res, err := sim.Run(e.costs(t, g), pol, sim.Options{})
	if err != nil {
		t.Fatalf("%s: %v", pol.Name(), err)
	}
	if err := res.Validate(g, e.sys); err != nil {
		t.Fatalf("%s schedule invalid: %v", pol.Name(), err)
	}
	return res
}

// twoA builds two independent "a" kernels (both best on GPU).
func twoA(t *testing.T) *dfg.Graph {
	t.Helper()
	b := dfg.NewBuilder()
	b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	return b.MustBuild()
}

func kindOf(t *testing.T, e testEnv, res *sim.Result, k dfg.KernelID) platform.Kind {
	t.Helper()
	return e.sys.KindOf(res.Placements[k].Proc)
}

func TestMETAlwaysUsesBestProcessor(t *testing.T) {
	e := newEnv(t)
	res := e.run(t, twoA(t), NewMET(1))
	// MET waits for the GPU: both kernels serialize there, makespan 4.
	if res.MakespanMs != 4 {
		t.Errorf("makespan = %v, want 4 (both on GPU)", res.MakespanMs)
	}
	for k := dfg.KernelID(0); k < 2; k++ {
		if got := kindOf(t, e, res, k); got != platform.GPU {
			t.Errorf("kernel %d ran on %s, want GPU", k, got)
		}
	}
	// Exactly one kernel waited 2 ms.
	if res.Lambda.TotalMs != 2 || res.Lambda.Count != 1 {
		t.Errorf("lambda = %+v, want total 2 count 1", res.Lambda)
	}
}

func TestMETDeterministicPerSeed(t *testing.T) {
	e := newEnv(t)
	g := workload.MustSuite(workload.Type1, 3)[0]
	_ = g // suite graphs use the paper catalog; build costs with paper table instead
	paperEnv := testEnv{sys: platform.PaperSystem(4), tab: lut.Paper()}
	r1 := paperEnv.run(t, g, NewMET(42))
	r2 := paperEnv.run(t, g, NewMET(42))
	if r1.MakespanMs != r2.MakespanMs {
		t.Errorf("same seed, different makespans: %v vs %v", r1.MakespanMs, r2.MakespanMs)
	}
	for i := range r1.Placements {
		if r1.Placements[i].Proc != r2.Placements[i].Proc {
			t.Fatalf("same seed, kernel %d placed differently", i)
		}
	}
	_ = e
}

func TestSPNKeepsSystemBusy(t *testing.T) {
	e := newEnv(t)
	res := e.run(t, twoA(t), NewSPN())
	// SPN assigns the first "a" to GPU (2ms) and immediately gives the
	// second to the best available remaining processor, CPU (10ms).
	kinds := map[platform.Kind]int{}
	for k := dfg.KernelID(0); k < 2; k++ {
		kinds[kindOf(t, e, res, k)]++
	}
	if kinds[platform.GPU] != 1 || kinds[platform.CPU] != 1 {
		t.Errorf("placements = %v, want one GPU one CPU", kinds)
	}
	if res.MakespanMs != 10 {
		t.Errorf("makespan = %v, want 10", res.MakespanMs)
	}
	// No kernel waits under SPN, but the kernel sent to the CPU pays an
	// execution-time penalty of 10-2=8 ms, which λ records.
	if res.Lambda.Count != 1 || res.Lambda.TotalMs != 8 {
		t.Errorf("lambda = %+v, want count 1 total 8 (slow-processor penalty)", res.Lambda)
	}
}

func TestSSPrioritisesHighStdDev(t *testing.T) {
	e := newEnv(t)
	b := dfg.NewBuilder()
	ka := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000}) // stddev across procs ~21
	kb := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000}) // stddev ~2.9
	g := b.MustBuild()
	res := e.run(t, g, NewSS())
	// "a" picked first -> GPU; then "b" -> FPGA (still available).
	if got := kindOf(t, e, res, ka); got != platform.GPU {
		t.Errorf("a on %s, want GPU", got)
	}
	if got := kindOf(t, e, res, kb); got != platform.FPGA {
		t.Errorf("b on %s, want FPGA", got)
	}
}

func TestSSSettlesForSlowProcessor(t *testing.T) {
	e := newEnv(t)
	res := e.run(t, twoA(t), NewSS())
	// Two "a" kernels: first takes GPU, second must settle for CPU.
	if res.MakespanMs != 10 {
		t.Errorf("makespan = %v, want 10", res.MakespanMs)
	}
}

func TestAGAssignsImmediately(t *testing.T) {
	e := newEnv(t)
	b := dfg.NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	}
	g := b.MustBuild()
	res := e.run(t, g, NewAG())
	// AG never leaves a ready kernel unassigned: every kernel's Assign time
	// is its Ready time (all 0 here).
	for i := range res.Placements {
		if res.Placements[i].Assign != 0 {
			t.Errorf("kernel %d assigned at %v, want 0 (immediate)", i, res.Placements[i].Assign)
		}
	}
}

func TestAGSpreadsByWaitEstimate(t *testing.T) {
	e := newEnv(t)
	b := dfg.NewBuilder()
	for i := 0; i < 3; i++ {
		b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	}
	g := b.MustBuild()
	res := e.run(t, g, NewAG())
	// With no history, wait estimates bootstrap from the kernels' own exec
	// times: first kernel sees zero queues everywhere and picks CPU (lowest
	// ID among zero-wait procs); subsequent ones avoid the growing queue.
	used := map[platform.ProcID]int{}
	for i := range res.Placements {
		used[res.Placements[i].Proc]++
	}
	if len(used) < 2 {
		t.Errorf("AG put every kernel on one processor: %v", used)
	}
}

func TestHEFTRanksDecreaseAlongEdges(t *testing.T) {
	e := testEnv{sys: platform.PaperSystem(4), tab: lut.Paper()}
	g := workload.MustSuite(workload.Type2, 5)[0]
	c := e.costs(t, g)
	h := NewHEFT()
	if err := h.Prepare(c); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumKernels(); u++ {
		for _, v := range g.Succs(dfg.KernelID(u)) {
			if h.RankU[u] <= h.RankU[v] {
				t.Errorf("rank_u(%d)=%v <= rank_u(succ %d)=%v", u, h.RankU[u], v, h.RankU[v])
			}
		}
	}
	if h.PlannedMakespanMs <= 0 {
		t.Error("planned makespan not positive")
	}
}

func TestHEFTSimpleChain(t *testing.T) {
	e := newEnv(t)
	b := dfg.NewBuilder()
	a := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	bb := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(a, bb)
	g := b.MustBuild()
	res := e.run(t, g, NewHEFT())
	// EFT places a on GPU (finish 2); b: FPGA exec 1 + tiny transfer beats
	// staying anywhere else.
	if got := kindOf(t, e, res, a); got != platform.GPU {
		t.Errorf("a on %s, want GPU", got)
	}
	if got := kindOf(t, e, res, bb); got != platform.FPGA {
		t.Errorf("b on %s, want FPGA", got)
	}
}

func TestHEFTInsertionFillsGaps(t *testing.T) {
	// Construct a timeline directly to exercise the insertion rule.
	var tl timeline
	tl.insert(10, 5) // busy [10,15)
	if got := tl.earliestSlot(0, 5); got != 0 {
		t.Errorf("slot before existing interval = %v, want 0", got)
	}
	tl.insert(0, 5) // busy [0,5) [10,15)
	if got := tl.earliestSlot(0, 5); got != 5 {
		t.Errorf("gap slot = %v, want 5", got)
	}
	if got := tl.earliestSlot(0, 6); got != 15 {
		t.Errorf("oversized gap request = %v, want 15", got)
	}
	if got := tl.earliestSlot(12, 2); got != 15 {
		t.Errorf("ready inside busy = %v, want 15", got)
	}
}

func TestPEFTOCTExitRowZero(t *testing.T) {
	e := testEnv{sys: platform.PaperSystem(4), tab: lut.Paper()}
	g := workload.MustSuite(workload.Type1, 7)[0]
	c := e.costs(t, g)
	pf := NewPEFT()
	if err := pf.Prepare(c); err != nil {
		t.Fatal(err)
	}
	for exit := range pf.OCT {
		if len(g.Succs(dfg.KernelID(exit))) > 0 {
			continue
		}
		for p := range pf.OCT[exit] {
			if pf.OCT[exit][p] != 0 {
				t.Errorf("OCT[exit %d][%d] = %v, want 0", exit, p, pf.OCT[exit][p])
			}
		}
	}
	// rank_oct of non-exit kernels must be positive.
	for _, entry := range g.Entries() {
		if len(g.Succs(entry)) > 0 && pf.RankOCT[entry] <= 0 {
			t.Errorf("rank_oct(entry %d) = %v, want > 0", entry, pf.RankOCT[entry])
		}
	}
}

func TestAllPoliciesProduceValidSchedules(t *testing.T) {
	e := testEnv{sys: platform.PaperSystem(4), tab: lut.Paper()}
	for _, typ := range []workload.GraphType{workload.Type1, workload.Type2} {
		graphs := workload.MustSuite(typ, workload.DefaultSuiteSeed)[:3]
		for gi, g := range graphs {
			pols := []sim.Policy{NewMET(1), NewSPN(), NewSS(), NewAG(), NewHEFT(), NewPEFT()}
			for _, pol := range pols {
				res, err := sim.Run(e.costs(t, g), pol, sim.Options{})
				if err != nil {
					t.Fatalf("%v graph %d %s: %v", typ, gi, pol.Name(), err)
				}
				if err := res.Validate(g, e.sys); err != nil {
					t.Errorf("%v graph %d %s invalid: %v", typ, gi, pol.Name(), err)
				}
			}
		}
	}
}

// The paper's qualitative ordering on heterogeneous workloads: MET, HEFT
// and PEFT should decisively beat AG (which optimises waiting, not
// computation) on the paper system.
func TestPolicyQualityOrdering(t *testing.T) {
	e := testEnv{sys: platform.PaperSystem(4), tab: lut.Paper()}
	g := workload.MustSuite(workload.Type1, workload.DefaultSuiteSeed)[1]
	mk := func(pol sim.Policy) float64 {
		res, err := sim.Run(e.costs(t, g), pol, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.MakespanMs
	}
	met := mk(NewMET(1))
	heft := mk(NewHEFT())
	peft := mk(NewPEFT())
	ag := mk(NewAG())
	for name, v := range map[string]float64{"MET": met, "HEFT": heft, "PEFT": peft} {
		if v >= ag {
			t.Errorf("%s makespan %v not better than AG %v", name, v, ag)
		}
	}
	if math.IsNaN(met + heft + peft + ag) {
		t.Error("NaN makespan")
	}
}
