package sim

import (
	"math"
	"testing"

	"repro/internal/dfg"
)

func TestSojournAndQueueWaitMetrics(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000}) // GPU 2ms
	k1 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	// k1 arrives at t=10, after k0 (arrival 0) has finished at 2: both run
	// on the GPU with zero queueing.
	res, err := Run(c, &greedy{}, Options{ArrivalTimes: []float64{0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := res.Placements[k0], res.Placements[k1]
	if p0.Arrival != 0 || p1.Arrival != 10 {
		t.Errorf("arrivals = %v, %v; want 0, 10", p0.Arrival, p1.Arrival)
	}
	if got := p1.Sojourn(); math.Abs(got-2) > 1e-9 {
		t.Errorf("k1 sojourn = %v, want 2 (exec only)", got)
	}
	if got := p1.QueueWait(); math.Abs(got-0) > 1e-9 {
		t.Errorf("k1 queue wait = %v, want 0", got)
	}
}

func TestSojournSeesQueueingUnderContention(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	// Three copies of "a" arriving together: the greedy policy spreads them
	// over GPU (2ms), CPU (10ms), FPGA (50ms), so the slowest placement's
	// sojourn is the largest.
	for i := 0; i < 3; i++ {
		b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	}
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	res, err := Run(c, &greedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var most float64
	for _, pl := range res.Placements {
		most = max(most, pl.Sojourn())
	}
	if most <= 2 {
		t.Errorf("largest sojourn = %v, want > 2 (contention must show)", most)
	}
}

// TestEmptyResultSummariesZero checks that a run without kernels reports a
// zero makespan and the zero λ summary, never the ±Inf that a raw minimum
// or maximum over no samples gives, so every Result JSON-encodes.
func TestEmptyResultSummariesZero(t *testing.T) {
	env := tiny(t, 4)
	g := dfg.NewBuilder().MustBuild()
	c := mustCosts(t, g, env)
	res, err := Run(c, &greedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanMs != 0 || res.Lambda != (LambdaStats{}) || len(res.Placements) != 0 {
		t.Errorf("empty run result = %+v, want zero makespan, λ and placements", res)
	}
}
