package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
)

// testTable builds a tiny hand-checkable lookup table:
//
//	kernel "a": CPU 10, GPU 2, FPGA 50
//	kernel "b": CPU 4,  GPU 8, FPGA 1
type tinyEnv struct {
	sys *platform.System
	tab *lut.Table
}

func tiny(t *testing.T, rate platform.GBps) tinyEnv {
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
	return tinyEnv{sys: platform.PaperSystem(rate), tab: tab}
}

// firstOfKind returns the lowest-ID processor of the given kind.
func firstOfKind(sys *platform.System, k platform.Kind) platform.ProcID {
	for p := 0; p < sys.NumProcs(); p++ {
		if sys.KindOf(platform.ProcID(p)) == k {
			return platform.ProcID(p)
		}
	}
	panic("no processor of kind " + string(k))
}

// greedy assigns each ready kernel (FCFS) to the available processor with
// the minimum execution time, ties to the lower ID; if none is available,
// it waits.
type greedy struct{ c *Costs }

func (g *greedy) Name() string           { return "greedy" }
func (g *greedy) Prepare(c *Costs) error { g.c = c; return nil }
func (g *greedy) Select(st *State) []Assignment {
	var out []Assignment
	avail := st.AppendAvailableProcs(nil) // ID order; taken entries become -1
	for _, k := range st.AppendReady(nil) {
		bi := -1
		best := math.Inf(1)
		for i, p := range avail {
			if p >= 0 && g.c.Exec(k, p) < best {
				best, bi = g.c.Exec(k, p), i
			}
		}
		if bi >= 0 {
			out = append(out, Assignment{Kernel: k, Proc: avail[bi]})
			avail[bi] = -1
		}
	}
	return out
}

// never is a policy that refuses to assign anything.
type never struct{}

func (never) Name() string               { return "never" }
func (never) Prepare(*Costs) error       { return nil }
func (never) Select(*State) []Assignment { return nil }

// fixed replays a fixed assignment list, all at t=0.
type fixed struct {
	as   []Assignment
	done bool
}

func (f *fixed) Name() string         { return "fixed" }
func (f *fixed) Prepare(*Costs) error { return nil }
func (f *fixed) Select(*State) []Assignment {
	if f.done {
		return nil
	}
	f.done = true
	return f.as
}

func mustCosts(t *testing.T, g *dfg.Graph, env tinyEnv) *Costs {
	t.Helper()
	c, err := PrepareCosts(g, env.sys, env.tab, CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func singleKernelGraph(t *testing.T) *dfg.Graph {
	t.Helper()
	b := dfg.NewBuilder()
	b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	return b.MustBuild()
}

func TestRunSingleKernel(t *testing.T) {
	env := tiny(t, 4)
	c := mustCosts(t, singleKernelGraph(t), env)
	res, err := Run(c, &greedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Best proc for "a" is GPU (2 ms), no transfers.
	if res.MakespanMs != 2 {
		t.Errorf("makespan = %v, want 2", res.MakespanMs)
	}
	pl := res.Placements[0]
	if env.sys.KindOf(pl.Proc) != platform.GPU {
		t.Errorf("kernel ran on %v, want GPU", env.sys.KindOf(pl.Proc))
	}
	if pl.Lambda() != 0 {
		t.Errorf("λ = %v, want 0", pl.Lambda())
	}
	if err := res.Validate(c.Graph(), env.sys); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestRunChainWithTransfer(t *testing.T) {
	env := tiny(t, 4) // 4 GB/s -> 4e6 bytes per ms
	b := dfg.NewBuilder()
	// a (best GPU) feeds b (best FPGA). b must wait for a and pay a transfer.
	a := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	bb := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(a, bb)
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	res, err := Run(c, &greedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// a on GPU finishes at 2. Transfer 1000 elems * 4 B = 4000 B at 4e6 B/ms
	// = 0.001 ms. b on FPGA: exec 1.
	want := 2 + 0.001 + 1.0
	if math.Abs(res.MakespanMs-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.MakespanMs, want)
	}
	plB := res.Placements[bb]
	if math.Abs(plB.Lambda()-0.001) > 1e-9 {
		t.Errorf("λ(b) = %v, want 0.001 (transfer only)", plB.Lambda())
	}
	if err := res.Validate(g, env.sys); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Transfer time must be booked on b's processor.
	if got := res.ProcStats[plB.Proc].XferMs; math.Abs(got-0.001) > 1e-9 {
		t.Errorf("XferMs = %v, want 0.001", got)
	}
}

func TestRunSameProcNoTransfer(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	a := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	a2 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	b.AddEdge(a, a2)
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	// Force both onto the GPU.
	gpu := firstOfKind(env.sys, platform.GPU)
	res, err := Run(c, &fixed{as: []Assignment{{a, gpu}, {a2, gpu}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanMs != 4 {
		t.Errorf("makespan = %v, want 4 (2+2, no transfer)", res.MakespanMs)
	}
	if res.ProcStats[gpu].XferMs != 0 {
		t.Errorf("XferMs = %v, want 0", res.ProcStats[gpu].XferMs)
	}
}

func TestRunQueuedAssignments(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	k1 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	gpu := firstOfKind(env.sys, platform.GPU)
	// Both queued on the GPU at t=0: FIFO execution, makespan 4.
	res, err := Run(c, &fixed{as: []Assignment{{k0, gpu}, {k1, gpu}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanMs != 4 {
		t.Errorf("makespan = %v, want 4", res.MakespanMs)
	}
	p0, p1 := res.Placements[k0], res.Placements[k1]
	if p0.Finish != 2 || p1.ExecStart != 2 || p1.Finish != 4 {
		t.Errorf("FIFO order broken: %+v / %+v", p0, p1)
	}
	// Second kernel waited 2 ms while ready -> λ = 2.
	if p1.Lambda() != 2 {
		t.Errorf("λ(k1) = %v, want 2", p1.Lambda())
	}
	if res.Lambda.Count != 1 || res.Lambda.TotalMs != 2 {
		t.Errorf("Lambda stats = %+v, want count 1 total 2", res.Lambda)
	}
}

func TestStaticAssignBeforeReady(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	a := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	dep := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(a, dep)
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	gpu := firstOfKind(env.sys, platform.GPU)
	fpga := firstOfKind(env.sys, platform.FPGA)
	// Assign both at t=0 like a static policy; dep is not ready yet and its
	// processor must wait for a to finish.
	res, err := Run(c, &fixed{as: []Assignment{{a, gpu}, {dep, fpga}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := res.Placements[dep]
	if pl.Assign != 0 {
		t.Errorf("Assign = %v, want 0", pl.Assign)
	}
	if pl.TransferStart < 2 {
		t.Errorf("dep started transfers at %v before its pred finished at 2", pl.TransferStart)
	}
	if err := res.Validate(g, env.sys); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := tiny(t, 4)
	c := mustCosts(t, singleKernelGraph(t), env)
	_, err := Run(c, never{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", err)
	}
}

func TestDoubleAssignPanics(t *testing.T) {
	env := tiny(t, 4)
	c := mustCosts(t, singleKernelGraph(t), env)
	defer func() {
		if recover() == nil {
			t.Error("double assignment did not panic")
		}
	}()
	gpu := firstOfKind(env.sys, platform.GPU)
	cpu := firstOfKind(env.sys, platform.CPU)
	Run(c, &fixed{as: []Assignment{{0, gpu}, {0, cpu}}}, Options{}) //nolint:errcheck
}

func TestSchedOverhead(t *testing.T) {
	env := tiny(t, 4)
	c := mustCosts(t, singleKernelGraph(t), env)
	res, err := Run(c, &greedy{}, Options{SchedOverheadMs: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MakespanMs-2.5) > 1e-9 {
		t.Errorf("makespan = %v, want 2.5 (overhead + exec)", res.MakespanMs)
	}
	if l := res.Placements[0].Lambda(); math.Abs(l-0.5) > 1e-9 {
		t.Errorf("λ = %v, want 0.5", l)
	}
	if _, err := Run(c, &greedy{}, Options{SchedOverheadMs: -1}); err == nil {
		t.Error("negative overhead accepted")
	}
}

func TestProcStatAccounting(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	for i := 0; i < 6; i++ {
		name := "a"
		if i%2 == 1 {
			name = "b"
		}
		b.AddKernel(dfg.Kernel{Name: name, DataElems: 1000})
	}
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	res, err := Run(c, &greedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g, env.sys); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range res.ProcStats {
		if math.Abs(st.ExecMs+st.XferMs+st.IdleMs-res.MakespanMs) > 1e-9 {
			t.Errorf("proc %d: exec+xfer+idle = %v, want makespan %v",
				st.Proc, st.ExecMs+st.XferMs+st.IdleMs, res.MakespanMs)
		}
		total += st.Kernels
	}
	if total != 6 {
		t.Errorf("kernels across procs = %d, want 6", total)
	}
}

func TestStateAccessors(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	k1 := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(k0, k1)
	g := b.MustBuild()
	c := mustCosts(t, g, env)

	probed := false
	probe := probePolicy{c: c, f: func(st *State) {
		if probed {
			return
		}
		probed = true
		ready := st.AppendReady(nil)
		if len(ready) != 1 || ready[0] != k0 {
			t.Errorf("Ready = %v, want [%d]", ready, k0)
		}
		if got := len(st.AppendAvailableProcs(nil)); got != 3 {
			t.Errorf("AppendAvailableProcs = %d, want 3", got)
		}
		if st.Now() != 0 {
			t.Errorf("Now = %v", st.Now())
		}
		if _, ok := st.ProcOf(k0); ok {
			t.Error("ProcOf before assignment should be false")
		}
		if st.RecentExecAvg(0) != 0 {
			t.Error("RecentExecAvg with no history should be 0")
		}
		if st.BusyUntil(0) != 0 {
			t.Errorf("BusyUntil(idle) = %v, want Now", st.BusyUntil(0))
		}
	}}
	if _, err := Run(c, &probe, Options{}); err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Error("probe never ran")
	}
}

// probePolicy runs a callback then behaves like greedy.
type probePolicy struct {
	c *Costs
	f func(*State)
	g greedy
}

func (p *probePolicy) Name() string { return "probe" }
func (p *probePolicy) Prepare(c *Costs) error {
	p.c = c
	return p.g.Prepare(c)
}
func (p *probePolicy) Select(st *State) []Assignment {
	p.f(st)
	return p.g.Select(st)
}

func TestRecentExecAvgAndBusyUntil(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000}) // GPU 2
	k1 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	gpu := firstOfKind(env.sys, platform.GPU)

	var sawAvg, sawBusy bool
	pol := &scriptedPolicy{
		onSelect: func(st *State, call int) []Assignment {
			switch call {
			case 0:
				// Queue both on the GPU.
				return []Assignment{{k0, gpu}, {k1, gpu}}
			default:
				if st.RecentExecAvg(gpu) == 2 {
					sawAvg = true
				}
				if st.BusyUntil(gpu) >= st.Now() {
					sawBusy = true
				}
				return nil
			}
		},
	}
	if _, err := Run(c, pol, Options{}); err != nil {
		t.Fatal(err)
	}
	if !sawAvg {
		t.Error("RecentExecAvg never reported completed history")
	}
	if !sawBusy {
		t.Error("BusyUntil never probed")
	}
}

// TestRecentExecAvgWindow runs more than ExecWindow kernels of distinct
// durations on one processor. After each completion RecentExecAvg must
// equal the mean of the last ExecWindow durations (all of them before the
// window fills), summed oldest first, bit for bit.
func TestRecentExecAvgWindow(t *testing.T) {
	const n = ExecWindow + 5
	durs := make([]float64, n)
	entries := make([]lut.Entry, n)
	b := dfg.NewBuilder()
	for i := range durs {
		durs[i] = 0.01 * math.Pow(1.7, float64(i))
		name := fmt.Sprintf("k%d", i)
		entries[i] = lut.Entry{Kernel: name, DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 1e6, platform.GPU: durs[i], platform.FPGA: 1e6}}
		b.AddKernel(dfg.Kernel{Name: name, DataElems: 1000})
	}
	tab, err := lut.New(entries)
	if err != nil {
		t.Fatal(err)
	}
	env := tinyEnv{sys: platform.PaperSystem(4), tab: tab}
	c := mustCosts(t, b.MustBuild(), env)
	gpu := firstOfKind(env.sys, platform.GPU)
	checked := 0
	pol := &scriptedPolicy{onSelect: func(st *State, call int) []Assignment {
		if call == 0 {
			as := make([]Assignment, n)
			for k := range as {
				as[k] = Assignment{Kernel: dfg.KernelID(k), Proc: gpu}
			}
			return as
		}
		// The kernels run one after another, so call c follows the c-th
		// completion.
		from := max(0, call-ExecWindow)
		var sum float64
		for _, d := range durs[from:call] {
			sum += d
		}
		want := sum / float64(call-from)
		if got := st.RecentExecAvg(gpu); got != want {
			t.Errorf("after %d completions RecentExecAvg = %v, want %v (the last %d)", call, got, want, call-from)
		}
		checked++
		return nil
	}}
	if _, err := Run(c, pol, Options{}); err != nil {
		t.Fatal(err)
	}
	if checked != n-1 {
		t.Fatalf("checked %d completions, want %d", checked, n-1)
	}
}

type scriptedPolicy struct {
	onSelect func(*State, int) []Assignment
	calls    int
}

func (s *scriptedPolicy) Name() string         { return "scripted" }
func (s *scriptedPolicy) Prepare(*Costs) error { return nil }
func (s *scriptedPolicy) Select(st *State) []Assignment {
	out := s.onSelect(st, s.calls)
	s.calls++
	return out
}

// Property: under the greedy policy, every random DAG yields a valid
// schedule whose makespan is at least the critical-path lower bound
// (fastest exec per kernel, transfers ignored) and at least the
// total-work/np bound on the fastest machine.
func TestGreedyScheduleValidProperty(t *testing.T) {
	env := tiny(t, 8)
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%25) + 1
		pEdge := float64(pRaw%70) / 100
		b := dfg.NewBuilder()
		for i := 0; i < n; i++ {
			name := "a"
			if r.Intn(2) == 1 {
				name = "b"
			}
			b.AddKernel(dfg.Kernel{Name: name, DataElems: 1000})
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < pEdge {
					b.AddEdge(dfg.KernelID(u), dfg.KernelID(v))
				}
			}
		}
		g := b.MustBuild()
		c, err := PrepareCosts(g, env.sys, env.tab, CostConfig{})
		if err != nil {
			return false
		}
		res, err := Run(c, &greedy{}, Options{})
		if err != nil {
			return false
		}
		if res.Validate(g, env.sys) != nil {
			return false
		}
		fastest := func(k dfg.Kernel) float64 {
			_, ms := c.BestProc(k.ID)
			return ms
		}
		cp, _ := g.CriticalPath(fastest)
		if res.MakespanMs < cp-1e-9 {
			return false
		}
		var work float64
		for _, k := range g.Kernels() {
			work += fastest(k)
		}
		if res.MakespanMs < work/float64(env.sys.NumProcs())-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
