package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/platform"
)

func TestArrivalPacingDelaysReadiness(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000}) // GPU 2ms
	k1 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	// k1 arrives at t=10; both run on their best processor (GPU) without
	// contention because k0 finishes at 2.
	res, err := Run(c, &greedy{}, Options{ArrivalTimes: []float64{0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	p1 := res.Placements[k1]
	if p1.Ready != 10 {
		t.Errorf("Ready = %v, want 10 (arrival)", p1.Ready)
	}
	if p1.ExecStart < 10 {
		t.Errorf("ExecStart = %v, want >= arrival", p1.ExecStart)
	}
	if p1.Lambda() != 0 {
		t.Errorf("λ = %v, want 0 (no wait after arrival)", p1.Lambda())
	}
	if math.Abs(res.MakespanMs-12) > 1e-9 {
		t.Errorf("makespan = %v, want 12", res.MakespanMs)
	}
	if err := res.Validate(g, env.sys); err != nil {
		t.Error(err)
	}
	_ = k0
}

func TestArrivalAfterPredecessorFinish(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000}) // finishes at 2
	k1 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	b.AddEdge(k0, k1)
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	// k1's dependency completes at 2 but the kernel only arrives at 50.
	res, err := Run(c, &greedy{}, Options{ArrivalTimes: []float64{0, 50}})
	if err != nil {
		t.Fatal(err)
	}
	p1 := res.Placements[k1]
	if p1.Ready != 50 {
		t.Errorf("Ready = %v, want 50 (arrival after preds)", p1.Ready)
	}
	if err := res.Validate(g, env.sys); err != nil {
		t.Error(err)
	}
}

func TestArrivalBeforePredecessorFinish(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000}) // finishes at 2
	k1 := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(k0, k1)
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	// k1 arrives at 1, before k0 finishes at 2: readiness waits for the
	// dependency.
	res, err := Run(c, &greedy{}, Options{ArrivalTimes: []float64{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Placements[k1].Ready; got != 2 {
		t.Errorf("Ready = %v, want 2 (dependency dominates)", got)
	}
}

func TestArrivalValidation(t *testing.T) {
	env := tiny(t, 4)
	c := mustCosts(t, singleKernelGraph(t), env)
	if _, err := Run(c, &greedy{}, Options{ArrivalTimes: []float64{1, 2}}); err == nil {
		t.Error("wrong-length arrivals accepted")
	}
	for _, at := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := Run(c, &greedy{}, Options{ArrivalTimes: []float64{at}})
		if err == nil || !strings.Contains(err.Error(), "kernel 0") {
			t.Errorf("arrival %v: err = %v, want a refusal naming kernel 0", at, err)
		}
	}
}

func TestArrivalInvisibleToPolicy(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	sawEarly := false
	pol := &scriptedPolicy{onSelect: func(st *State, call int) []Assignment {
		for _, k := range st.AppendReady(nil) {
			if k == 1 && st.Now() < 5 {
				sawEarly = true
			}
		}
		// Greedy on whatever is visible.
		var out []Assignment
		procs := st.AppendAvailableProcs(nil)
		for i, k := range st.AppendReady(nil) {
			if i >= len(procs) {
				break
			}
			out = append(out, Assignment{Kernel: k, Proc: procs[i]})
		}
		return out
	}}
	if _, err := Run(c, pol, Options{ArrivalTimes: []float64{0, 5}}); err != nil {
		t.Fatal(err)
	}
	if sawEarly {
		t.Error("kernel visible in Ready() before its arrival time")
	}
}

func TestQueuedHeadWaitsForArrival(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	gpu := firstOfKind(env.sys, platform.GPU)
	// A static-style policy assigns the kernel at t=0 although it arrives
	// at t=7: the processor must idle until the arrival.
	res, err := Run(c, &fixed{as: []Assignment{{k0, gpu}}}, Options{ArrivalTimes: []float64{7}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Placements[k0].ExecStart; got < 7 {
		t.Errorf("ExecStart = %v, want >= 7 (arrival)", got)
	}
}
