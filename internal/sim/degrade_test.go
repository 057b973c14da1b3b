package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/perturb"
	"repro/internal/platform"
)

func mustSchedule(t *testing.T, events ...perturb.Event) *perturb.Schedule {
	t.Helper()
	s, err := perturb.NewSchedule(events)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// gpuProc finds the paper system's GPU processor ID.
func gpuProc(t *testing.T, sys *platform.System) platform.ProcID {
	t.Helper()
	for p := 0; p < sys.NumProcs(); p++ {
		if sys.KindOf(platform.ProcID(p)) == platform.GPU {
			return platform.ProcID(p)
		}
	}
	t.Fatal("no GPU in system")
	return -1
}

func TestDegradeSlowdownStretchesExec(t *testing.T) {
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	c := mustCosts(t, g, env)
	gpu := gpuProc(t, env.sys)
	// The greedy policy picks the GPU (2 ms estimate); a 2x slowdown
	// covering the whole run makes it take 4 ms.
	deg := mustSchedule(t, perturb.Event{Kind: perturb.ProcSlowdown, Proc: gpu, Factor: 2, StartMs: 0, EndMs: 1000})
	res, err := Run(c, &greedy{}, Options{Degrade: deg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placements[0].Proc != gpu {
		t.Fatalf("kernel placed on %d, want GPU %d", res.Placements[0].Proc, gpu)
	}
	if math.Abs(res.MakespanMs-4) > 1e-9 {
		t.Errorf("makespan = %v, want 4 (2 ms at half speed)", res.MakespanMs)
	}
	if err := res.Validate(g, env.sys); err != nil {
		t.Errorf("degraded schedule invalid: %v", err)
	}
}

func TestDegradePartialWindowIntegration(t *testing.T) {
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	c := mustCosts(t, g, env)
	gpu := gpuProc(t, env.sys)
	// Nominal exec 2 ms starting at 0. Half speed during [1, 3): one unit
	// of work done by t=1, the remaining 1 unit takes 2 wall ms. Finish 3.
	deg := mustSchedule(t, perturb.Event{Kind: perturb.ProcSlowdown, Proc: gpu, Factor: 2, StartMs: 1, EndMs: 3})
	res, err := Run(c, &greedy{}, Options{Degrade: deg})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MakespanMs-3) > 1e-9 {
		t.Errorf("makespan = %v, want 3 (integral over the slowdown window)", res.MakespanMs)
	}
}

func TestDegradeOfflineStallsWork(t *testing.T) {
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	c := mustCosts(t, g, env)
	gpu := gpuProc(t, env.sys)
	// GPU offline during [0, 5): the 2 ms kernel runs [5, 7).
	deg := mustSchedule(t, perturb.Event{Kind: perturb.ProcOffline, Proc: gpu, StartMs: 0, EndMs: 5})
	res, err := Run(c, &greedy{}, Options{Degrade: deg})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MakespanMs-7) > 1e-9 {
		t.Errorf("makespan = %v, want 7 (offline until 5 + 2 ms exec)", res.MakespanMs)
	}
}

func TestDegradeLinkSlowdownStretchesTransfer(t *testing.T) {
	env := tiny(t, 4) // 4 GB/s: 1000 elems * 4 B = 4000 B -> 1e-3 ms nominal
	b := dfg.NewBuilder()
	b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000, OutElems: 1000})
	b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000, OutElems: 1000})
	b.AddEdge(0, 1)
	g := b.MustBuild()
	c := mustCosts(t, g, env)

	base, err := Run(c, &greedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := base.Placements[1]
	baseXfer := pl.ExecStart - pl.TransferStart
	if baseXfer <= 0 {
		t.Fatalf("expected a cross-processor transfer, got %v (procs %d -> %d)",
			baseXfer, base.Placements[0].Proc, pl.Proc)
	}

	deg := mustSchedule(t, perturb.Event{
		Kind: perturb.LinkSlowdown, From: base.Placements[0].Proc, To: pl.Proc,
		Factor: 10, StartMs: 0, EndMs: 1e6})
	res, err := Run(c, &greedy{}, Options{Degrade: deg})
	if err != nil {
		t.Fatal(err)
	}
	dpl := res.Placements[1]
	gotXfer := dpl.ExecStart - dpl.TransferStart
	if math.Abs(gotXfer-10*baseXfer) > 1e-9 {
		t.Errorf("degraded transfer = %v, want %v (10x the nominal %v)", gotXfer, 10*baseXfer, baseXfer)
	}
}

func TestDegradeOfflineDestinationBlocksTransfer(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000, OutElems: 1000})
	b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000, OutElems: 1000})
	b.AddEdge(0, 1)
	g := b.MustBuild()
	c := mustCosts(t, g, env)

	base, err := Run(c, &greedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst := base.Placements[1].Proc
	start := base.Placements[1].TransferStart
	// Take the destination offline for 50 ms spanning the transfer start:
	// the incoming transfer (and exec) cannot begin until it returns.
	deg := mustSchedule(t, perturb.Event{Kind: perturb.ProcOffline, Proc: dst, StartMs: start, EndMs: start + 50})
	res, err := Run(c, &greedy{}, Options{Degrade: deg})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Placements[1].ExecStart; got < start+50 {
		t.Errorf("exec started at %v during the destination's offline window (ends %v)", got, start+50)
	}
	if err := res.Validate(g, env.sys); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

// foreverStalled is a pathological Degradation: speed 0 with no end.
type foreverStalled struct{}

func (foreverStalled) ExecSpeed(platform.ProcID, float64) (float64, float64) {
	return 0, math.Inf(1)
}
func (foreverStalled) LinkSpeed(platform.ProcID, platform.ProcID, float64) (float64, float64) {
	return 1, math.Inf(1)
}

func TestDegradeForeverOfflineErrors(t *testing.T) {
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	c := mustCosts(t, g, env)
	_, err := Run(c, &greedy{}, Options{Degrade: foreverStalled{}})
	if err == nil || !strings.Contains(err.Error(), "stalls forever") {
		t.Errorf("expected a stalls-forever error, got %v", err)
	}
}

// speedup violates the Degradation contract: speed above 1.
type speedup struct{}

func (speedup) ExecSpeed(platform.ProcID, float64) (float64, float64) {
	return 2, math.Inf(1)
}
func (speedup) LinkSpeed(platform.ProcID, platform.ProcID, float64) (float64, float64) {
	return 1, math.Inf(1)
}

func TestDegradeSpeedAboveOneErrors(t *testing.T) {
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	c := mustCosts(t, g, env)
	_, err := Run(c, &greedy{}, Options{Degrade: speedup{}})
	if err == nil || !strings.Contains(err.Error(), "must be in [0, 1]") {
		t.Errorf("expected an invalid-speed error for speed 2, got %v", err)
	}
}

// spy wraps greedy and records every estimate it reads from the cost
// oracle Prepare hands it.
type spy struct {
	greedy
	seenExec []float64
}

func (s *spy) Select(st *State) []Assignment {
	for _, k := range st.AppendReady(nil) {
		for p := 0; p < st.System().NumProcs(); p++ {
			s.seenExec = append(s.seenExec, s.c.Exec(k, platform.ProcID(p)))
		}
	}
	return s.greedy.Select(st)
}

// TestPolicySeesEstimatesEngineChargesActuals is the tentpole's regression
// guarantee: under both estimate noise (ActualCosts) and platform
// degradation (Degrade), every cost a policy observes is the clean
// estimate, while the engine's placements follow the perturbed, stretched
// reality.
func TestPolicySeesEstimatesEngineChargesActuals(t *testing.T) {
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	est := mustCosts(t, g, env)
	actualTab := scaledTable(t, 3) // reality: 3x the estimates
	actual, err := PrepareCosts(g, env.sys, actualTab, CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gpu := gpuProc(t, env.sys)
	deg := mustSchedule(t, perturb.Event{Kind: perturb.ProcSlowdown, Proc: gpu, Factor: 2, StartMs: 0, EndMs: 1e6})

	pol := &spy{}
	res, err := Run(est, pol, Options{ActualCosts: actual, Degrade: deg})
	if err != nil {
		t.Fatal(err)
	}

	// The policy saw exactly the clean estimates for kernel 0 on every
	// processor — no leak of the 3x actual table or the 2x degradation.
	want := make([]float64, env.sys.NumProcs())
	for p := range want {
		want[p] = est.Exec(0, platform.ProcID(p))
	}
	if len(pol.seenExec) < len(want) {
		t.Fatalf("policy recorded %d estimates, want at least %d", len(pol.seenExec), len(want))
	}
	for p, w := range want {
		if pol.seenExec[p] != w {
			t.Errorf("policy saw exec[0][%d] = %v, want clean estimate %v", p, pol.seenExec[p], w)
		}
	}

	// The engine charged the perturbed actual (3 x 2 = 6 ms on the GPU)
	// stretched by the degradation (x2): 12 ms.
	pl := res.Placements[0]
	if pl.Proc != gpu {
		t.Fatalf("kernel placed on %d, want GPU %d (estimates say GPU)", pl.Proc, gpu)
	}
	if math.Abs(res.MakespanMs-12) > 1e-9 {
		t.Errorf("makespan = %v, want 12 (actual 6 ms at half speed)", res.MakespanMs)
	}
}

func TestDegradeDeterministicRerun(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	for i := 0; i < 6; i++ {
		name := "a"
		if i%2 == 1 {
			name = "b"
		}
		b.AddKernel(dfg.Kernel{Name: name, DataElems: 1000, OutElems: 1000})
	}
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 4)
	b.AddEdge(3, 5)
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	deg := mustSchedule(t,
		perturb.Event{Kind: perturb.ProcSlowdown, Proc: 0, Factor: 3, StartMs: 2, EndMs: 9},
		perturb.Event{Kind: perturb.ProcOffline, Proc: 1, StartMs: 1, EndMs: 4},
		perturb.Event{Kind: perturb.LinkSlowdown, From: 0, To: 2, Factor: 5, StartMs: 0, EndMs: 20},
	)
	var first *Result
	for run := 0; run < 3; run++ {
		res, err := Run(c, &greedy{}, Options{Degrade: deg})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(g, env.sys); err != nil {
			t.Fatalf("run %d invalid: %v", run, err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.MakespanMs != first.MakespanMs {
			t.Fatalf("run %d makespan %v != first %v", run, res.MakespanMs, first.MakespanMs)
		}
		for i := range res.Placements {
			if res.Placements[i] != first.Placements[i] {
				t.Fatalf("run %d placement %d drifted: %+v vs %+v", run, i, res.Placements[i], first.Placements[i])
			}
		}
	}
}
