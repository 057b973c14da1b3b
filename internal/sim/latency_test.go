package sim

import (
	"math"
	"testing"

	"repro/internal/dfg"
	"repro/internal/stats"
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
	// Result-level summaries aggregate both kernels' sojourns {2, 2}.
	if res.Sojourn.Count != 2 {
		t.Fatalf("sojourn count = %d, want 2", res.Sojourn.Count)
	}
	if math.Abs(res.Sojourn.P50-2) > 1e-9 || math.Abs(res.Sojourn.P99-2) > 1e-9 {
		t.Errorf("sojourn summary = %+v, want all-2", res.Sojourn)
	}
	if res.QueueWait.Count != 2 || res.QueueWait.Max > 1e-9 {
		t.Errorf("queue wait summary = %+v, want zeros", res.QueueWait)
	}
}

func TestSojournSeesQueueingUnderContention(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	// Three copies of "a" arriving together: the greedy policy spreads them
	// over GPU (2ms), CPU (10ms), FPGA (50ms), so the slowest placement's
	// sojourn dominates the p99.
	for i := 0; i < 3; i++ {
		b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	}
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	res, err := Run(c, &greedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sojourn.Count != 3 {
		t.Fatalf("count = %d", res.Sojourn.Count)
	}
	if res.Sojourn.Max < res.Sojourn.P50 || res.Sojourn.P99 > res.Sojourn.Max {
		t.Errorf("summary not internally consistent: %+v", res.Sojourn)
	}
	if res.Sojourn.Max <= 2 {
		t.Errorf("max sojourn = %v, want > 2 (contention must show)", res.Sojourn.Max)
	}
}

// TestEmptyResultSummariesZero pins the ±Inf regression: the latency
// summaries of a run without kernels are the zero Summary, never the ±Inf
// that a raw minimum or maximum over no samples gives, so every Result
// JSON-encodes.
func TestEmptyResultSummariesZero(t *testing.T) {
	env := tiny(t, 4)
	g := dfg.NewBuilder().MustBuild()
	c := mustCosts(t, g, env)
	res, err := Run(c, &greedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sojourn != (stats.Summary{}) || res.QueueWait != (stats.Summary{}) {
		t.Errorf("empty run summaries = %+v / %+v, want zero", res.Sojourn, res.QueueWait)
	}
	if res.MakespanMs != 0 || res.Lambda != (LambdaStats{}) || len(res.Placements) != 0 {
		t.Errorf("empty run result = %+v, want zero makespan, λ and placements", res)
	}
}
