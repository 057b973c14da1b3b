package sim

import (
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/workload"
)

func benchGraphCosts(b *testing.B) *Costs {
	b.Helper()
	g := workload.MustSuite(workload.Type2, workload.DefaultSuiteSeed)[9] // 157 kernels
	c, err := PrepareCosts(g, platform.PaperSystem(4), lut.Paper(), CostConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkPrepareCosts(b *testing.B) {
	g := workload.MustSuite(workload.Type2, workload.DefaultSuiteSeed)[9]
	sys := platform.PaperSystem(4)
	tab := lut.Paper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PrepareCosts(g, sys, tab, CostConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRun measures the raw event loop on the largest suite
// graph under a trivial greedy policy.
func BenchmarkEngineRun(b *testing.B) {
	c := benchGraphCosts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, &greedyBench{}, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

type greedyBench struct{ c *Costs }

func (g *greedyBench) Name() string           { return "greedy" }
func (g *greedyBench) Prepare(c *Costs) error { g.c = c; return nil }
func (g *greedyBench) Select(st *State) []Assignment {
	var out []Assignment
	procs := st.AppendAvailableProcs(nil)
	for _, k := range st.AppendReady(nil) {
		if len(procs) == 0 {
			break
		}
		out = append(out, Assignment{Kernel: k, Proc: procs[0]})
		procs = procs[1:]
	}
	return out
}

func BenchmarkTransferIn(b *testing.B) {
	c := benchGraphCosts(b)
	g := c.Graph()
	// Find a kernel with predecessors: the first exit.
	kid := dfg.KernelID(0)
	for len(g.Succs(kid)) > 0 {
		kid++
	}
	place := func(k dfg.KernelID) platform.ProcID { return platform.ProcID(int(k) % 3) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TransferIn(kid, 0, place)
	}
}
