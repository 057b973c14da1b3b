package sim_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// logProbe wraps a policy and checks State.ReadyLog's contract at every
// Select: the log keeps every earlier entry in place, its unassigned
// entries in order are AppendReady's output, and no kernel appears twice.
// It keeps a copy of the log from the latest Select and of the first
// Select's log.
type logProbe struct {
	sim.Policy
	t           *testing.T
	calls       int
	first, last []dfg.KernelID
	ready, open []dfg.KernelID
	seen        []bool
}

func (p *logProbe) Prepare(c *sim.Costs) error {
	p.calls = 0
	p.first, p.last = p.first[:0], p.last[:0]
	p.seen = make([]bool, c.Graph().NumKernels())
	return p.Policy.Prepare(c)
}

func (p *logProbe) Select(st *sim.State) []sim.Assignment {
	log := st.ReadyLog()
	if len(log) < len(p.last) || !slices.Equal(log[:len(p.last)], p.last) {
		p.t.Fatalf("select %d: log %v does not extend the previous log %v", p.calls, log, p.last)
	}
	clear(p.seen)
	p.open = p.open[:0]
	for _, k := range log {
		if p.seen[k] {
			p.t.Fatalf("select %d: kernel %d appears twice in %v", p.calls, k, log)
		}
		p.seen[k] = true
		if _, ok := st.ProcOf(k); !ok {
			p.open = append(p.open, k)
		}
	}
	p.ready = st.AppendReady(p.ready[:0])
	if !slices.Equal(p.open, p.ready) {
		p.t.Fatalf("select %d: unassigned log entries %v, AppendReady %v", p.calls, p.open, p.ready)
	}
	if p.calls == 0 {
		p.first = append(p.first, log...)
	}
	p.last = append(p.last[:0], log...)
	p.calls++
	return p.Policy.Select(st)
}

func readyLogCosts(t *testing.T, n int, seed int64) *sim.Costs {
	t.Helper()
	series, err := workload.ScaleSeries(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.BuildScaleLayered(series, workload.ScaleLayeredConfig{Layers: 8, FanIn: 3},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := sim.PrepareCosts(g, platform.PaperSystem(4), lut.Paper(), sim.CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// entryKernels returns the kernels without predecessors, in ID order.
func entryKernels(g *dfg.Graph) []dfg.KernelID {
	var out []dfg.KernelID
	for k := range g.NumKernels() {
		if g.InDegree(dfg.KernelID(k)) == 0 {
			out = append(out, dfg.KernelID(k))
		}
	}
	return out
}

// checkReadyOrder requires the log to list kernels in the order they
// became ready.
func checkReadyOrder(t *testing.T, log []dfg.KernelID, res *sim.Result) {
	t.Helper()
	for i := 1; i < len(log); i++ {
		if a, b := res.Placements[log[i-1]].Ready, res.Placements[log[i]].Ready; b < a {
			t.Fatalf("log[%d] = kernel %d ready at %v after log[%d] = kernel %d ready at %v",
				i-1, log[i-1], a, i, log[i], b)
		}
	}
}

// TestReadyLogContract checks State.ReadyLog, and AppendReady against it,
// at every Select of dynamic, paced and static runs, and what the whole log
// holds once a run ends.
func TestReadyLogContract(t *testing.T) {
	c := readyLogCosts(t, 300, 5)
	g := c.Graph()
	n := g.NumKernels()

	t.Run("dynamic runs on a reused runner", func(t *testing.T) {
		r := sim.NewRunner()
		pols := []sim.Policy{core.New(4), core.NewR(2), policy.NewMET(3), policy.NewSPN(), policy.NewSS(),
			policy.NewAG(), policy.NewOLB(), policy.NewAR(3), core.New(4)}
		for _, pol := range pols {
			probe := &logProbe{Policy: pol, t: t}
			res, err := r.Run(c, probe, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(probe.last) != n {
				t.Fatalf("%s: log holds %d of %d kernels", pol.Name(), len(probe.last), n)
			}
			checkReadyOrder(t, probe.last, res)
			if want := entryKernels(g); !slices.Equal(probe.first, want) {
				t.Fatalf("%s: first Select saw log %v, want the entry kernels %v", pol.Name(), probe.first, want)
			}
		}
	})

	t.Run("arrivals", func(t *testing.T) {
		arrivals, err := workload.PoissonArrivals(g, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []sim.Policy{core.New(4), policy.NewMET(3), policy.NewSPN(), policy.NewAG()} {
			probe := &logProbe{Policy: pol, t: t}
			res, err := sim.Run(c, probe, sim.Options{ArrivalTimes: arrivals})
			if err != nil {
				t.Fatal(err)
			}
			if len(probe.last) != n {
				t.Fatalf("%s: log holds %d of %d kernels", pol.Name(), len(probe.last), n)
			}
			checkReadyOrder(t, probe.last, res)
		}

		// Independent kernels arriving out of ID order become ready, and
		// enter the log, in arrival order.
		b := dfg.NewBuilder()
		for range 5 {
			b.AddKernel(dfg.Kernel{Name: g.Kernel(0).Name, DataElems: g.Kernel(0).DataElems})
		}
		free, err := sim.PrepareCosts(b.MustBuild(), platform.PaperSystem(4), lut.Paper(), sim.CostConfig{})
		if err != nil {
			t.Fatal(err)
		}
		probe := &logProbe{Policy: core.New(4), t: t}
		if _, err := sim.Run(free, probe, sim.Options{ArrivalTimes: []float64{40, 10, 30, 0, 20}}); err != nil {
			t.Fatal(err)
		}
		if want := []dfg.KernelID{3, 1, 4, 2, 0}; !slices.Equal(probe.last, want) {
			t.Fatalf("log %v, want arrival order %v", probe.last, want)
		}
	})

	t.Run("heft", func(t *testing.T) {
		// HEFT assigns its whole plan in the first Select: only the entry
		// kernels were ready before it, and every other kernel is assigned
		// before it becomes ready, so it never enters the log.
		probe := &logProbe{Policy: policy.NewHEFT(), t: t}
		if _, err := sim.Run(c, probe, sim.Options{}); err != nil {
			t.Fatal(err)
		}
		if want := entryKernels(g); !slices.Equal(probe.last, want) {
			t.Fatalf("log %v, want the entry kernels %v", probe.last, want)
		}
	})

	t.Run("completions at one instant", func(t *testing.T) {
		// Kernels 0 → 3 and 1 → 2 on two identical GPUs: 0 and 1 finish
		// together. Select runs after each completion, and kernel 0's comes
		// first, so 3 is ready before 2 although its ID is higher.
		tab, err := lut.New([]lut.Entry{{Kernel: "k", DataElems: 1000,
			TimeMs: map[platform.Kind]float64{platform.GPU: 2}}})
		if err != nil {
			t.Fatal(err)
		}
		pb := platform.NewBuilder()
		pb.AddProcessor(platform.GPU, "")
		pb.AddProcessor(platform.GPU, "")
		sys := pb.SetUniformRate(4).MustBuild()
		b := dfg.NewBuilder()
		for range 4 {
			b.AddKernel(dfg.Kernel{Name: "k", DataElems: 1000})
		}
		b.AddEdge(0, 3)
		b.AddEdge(1, 2)
		pair, err := sim.PrepareCosts(b.MustBuild(), sys, tab, sim.CostConfig{})
		if err != nil {
			t.Fatal(err)
		}
		pol := &pairPolicy{}
		if _, err := sim.Run(pair, &logProbe{Policy: pol, t: t}, sim.Options{}); err != nil {
			t.Fatal(err)
		}
		want := [][]dfg.KernelID{{0, 1}, {3}, {3, 2}}
		if !slices.EqualFunc(pol.seen, want, slices.Equal) {
			t.Fatalf("AppendReady answers %v, want %v", pol.seen, want)
		}
	})
}

// pairPolicy records each non-empty AppendReady answer and places ready
// kernels on the available processors in ID order only while at least two
// are ready.
type pairPolicy struct{ seen [][]dfg.KernelID }

func (p *pairPolicy) Name() string             { return "pair" }
func (p *pairPolicy) Prepare(*sim.Costs) error { p.seen = nil; return nil }
func (p *pairPolicy) Select(st *sim.State) []sim.Assignment {
	ready := st.AppendReady(nil)
	if len(ready) == 0 {
		return nil
	}
	p.seen = append(p.seen, ready)
	if len(ready) < 2 {
		return nil
	}
	var out []sim.Assignment
	for i, proc := range st.AppendAvailableProcs(nil) {
		if i < len(ready) {
			out = append(out, sim.Assignment{Kernel: ready[i], Proc: proc})
		}
	}
	return out
}
