package sim

import (
	"math"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
)

// scaledTable returns the tiny test table with all times multiplied.
func scaledTable(t *testing.T, factor float64) *lut.Table {
	t.Helper()
	tab, err := lut.New([]lut.Entry{
		{Kernel: "a", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 10 * factor, platform.GPU: 2 * factor, platform.FPGA: 50 * factor}},
		{Kernel: "b", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 4 * factor, platform.GPU: 8 * factor, platform.FPGA: 1 * factor}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestActualCostsDriveExecution(t *testing.T) {
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	est := mustCosts(t, g, env)
	actualTab := scaledTable(t, 3) // reality is 3x slower than the estimate
	actual, err := PrepareCosts(g, env.sys, actualTab, CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(est, &greedy{}, Options{ActualCosts: actual})
	if err != nil {
		t.Fatal(err)
	}
	// The policy picks the GPU from the estimate (2 ms); execution takes
	// the actual 6 ms.
	if math.Abs(res.MakespanMs-6) > 1e-9 {
		t.Errorf("makespan = %v, want 6 (actual time)", res.MakespanMs)
	}
	// λ baseline is the actual best (6), so λ = 0 here.
	if l := res.Placements[0].Lambda(); math.Abs(l) > 1e-9 {
		t.Errorf("λ = %v, want 0", l)
	}
}

func TestActualCostsValidation(t *testing.T) {
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	est := mustCosts(t, g, env)

	// Different graph.
	b := dfg.NewBuilder()
	b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	other := b.MustBuild()
	wrongGraph, err := PrepareCosts(other, env.sys, env.tab, CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(est, &greedy{}, Options{ActualCosts: wrongGraph}); err == nil {
		t.Error("ActualCosts over a different graph accepted")
	}
}

func TestActualCostsMisleadEstimates(t *testing.T) {
	// Estimates say GPU is best for "a"; reality inverts CPU and GPU. The
	// policy still places on the GPU (it trusts its table), and the run
	// reports the true actual (slow) execution, with λ charging the mistake.
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	est := mustCosts(t, g, env)
	inverted, err := lut.New([]lut.Entry{
		{Kernel: "a", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 2, platform.GPU: 10, platform.FPGA: 50}},
		{Kernel: "b", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 4, platform.GPU: 8, platform.FPGA: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	actual, err := PrepareCosts(g, env.sys, inverted, CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(est, &greedy{}, Options{ActualCosts: actual})
	if err != nil {
		t.Fatal(err)
	}
	pl := res.Placements[0]
	if env.sys.KindOf(pl.Proc) != platform.GPU {
		t.Fatalf("policy placed on %v, expected to trust estimate (GPU)", env.sys.KindOf(pl.Proc))
	}
	if math.Abs(res.MakespanMs-10) > 1e-9 {
		t.Errorf("makespan = %v, want actual GPU time 10", res.MakespanMs)
	}
	// λ = (10 - 0) - actual best (CPU 2) = 8: the cost of the wrong guess.
	if l := pl.Lambda(); math.Abs(l-8) > 1e-9 {
		t.Errorf("λ = %v, want 8", l)
	}
}
