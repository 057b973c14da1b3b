// Benchmarks regenerating every table and figure of the thesis's
// evaluation (one Benchmark per paper artifact), plus ablation benches for
// the design choices docs/ARCHITECTURE.md calls out. Each iteration rebuilds the
// artifact from scratch on a fresh runner — no memoisation across
// iterations — so the reported time is the full cost of reproducing that
// artifact.
//
// Run them all:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"testing"

	"repro/apt"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchArtifact regenerates one paper artifact per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Config{})
		a, err := r.Artifact(id)
		if err != nil {
			b.Fatal(err)
		}
		if a == nil {
			b.Fatal("nil artifact")
		}
	}
}

// One benchmark per paper table and figure (the evaluation chapter's full
// set; see docs/ARCHITECTURE.md for the module map).

func BenchmarkTable01(b *testing.B)   { benchArtifact(b, "table1") }
func BenchmarkTable05(b *testing.B)   { benchArtifact(b, "table5") }
func BenchmarkTable07(b *testing.B)   { benchArtifact(b, "table7") }
func BenchmarkFigure05(b *testing.B)  { benchArtifact(b, "figure5") }
func BenchmarkTable08(b *testing.B)   { benchArtifact(b, "table8") }
func BenchmarkFigure06(b *testing.B)  { benchArtifact(b, "figure6") }
func BenchmarkFigure07(b *testing.B)  { benchArtifact(b, "figure7") }
func BenchmarkFigure08a(b *testing.B) { benchArtifact(b, "figure8a") }
func BenchmarkTable09(b *testing.B)   { benchArtifact(b, "table9") }
func BenchmarkFigure08b(b *testing.B) { benchArtifact(b, "figure8b") }
func BenchmarkTable10(b *testing.B)   { benchArtifact(b, "table10") }
func BenchmarkFigure09(b *testing.B)  { benchArtifact(b, "figure9") }
func BenchmarkFigure10(b *testing.B)  { benchArtifact(b, "figure10") }
func BenchmarkTable11(b *testing.B)   { benchArtifact(b, "table11") }
func BenchmarkFigure11(b *testing.B)  { benchArtifact(b, "figure11") }
func BenchmarkTable12(b *testing.B)   { benchArtifact(b, "table12") }
func BenchmarkFigure12(b *testing.B)  { benchArtifact(b, "figure12") }
func BenchmarkTable13(b *testing.B)   { benchArtifact(b, "table13") }
func BenchmarkTable14(b *testing.B)   { benchArtifact(b, "table14") }
func BenchmarkTable15(b *testing.B)   { benchArtifact(b, "table15") }
func BenchmarkTable16(b *testing.B)   { benchArtifact(b, "table16") }

// Extension artifacts (not in the thesis; see docs/ARCHITECTURE.md).

func BenchmarkExtPolicies(b *testing.B) { benchArtifact(b, "ext-policies") }
func BenchmarkExtStream(b *testing.B)   { benchArtifact(b, "ext-stream") }
func BenchmarkExtLatency(b *testing.B)  { benchArtifact(b, "ext-latency") }
func BenchmarkExtNoise(b *testing.B)    { benchArtifact(b, "ext-noise") }
func BenchmarkExtBounds(b *testing.B)   { benchArtifact(b, "ext-bounds") }

// BenchmarkStreamRunner times the open-system streaming driver end to
// end: a 2000-kernel Poisson stream in 500-kernel windows, sharded
// through the batch worker pool under APT, including shard generation and
// latency aggregation. It reports the aggregate p99 sojourn as a custom
// metric so `-bench` output doubles as a latency table.
func BenchmarkStreamRunner(b *testing.B) {
	b.ReportAllocs()
	var p99 float64
	for i := 0; i < b.N; i++ {
		shards, err := apt.MakeStream(2000, 500, 1, func(w *apt.Workload, seed int64) ([]float64, error) {
			return apt.PoissonArrivals(w, 1000, seed)
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := apt.RunStream(context.Background(), shards, apt.PaperMachine(4), apt.APT(4))
		if err != nil {
			b.Fatal(err)
		}
		if res.Kernels != 2000 {
			b.Fatalf("kernels = %d", res.Kernels)
		}
		p99 = res.Sojourn.P99
	}
	b.ReportMetric(p99, "p99_sojourn_ms")
}

// --- Ablation benches -----------------------------------------------------
//
// These quantify the design decisions documented in docs/ARCHITECTURE.md by running
// one full suite (10 graphs) per iteration and reporting the average
// makespan as a custom metric (ms/graph), so `-bench` output doubles as an
// ablation table.

func suiteAvgMakespan(b *testing.B, typ workload.GraphType, rate platform.GBps,
	mode sim.TransferMode, newPol func() sim.Policy) float64 {
	b.Helper()
	graphs := workload.MustSuite(typ, workload.DefaultSuiteSeed)
	var total float64
	for _, g := range graphs {
		costs, err := sim.PrepareCosts(g, platform.PaperSystem(rate), lut.Paper(),
			sim.CostConfig{Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(costs, newPol(), sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		total += res.MakespanMs
	}
	return total / float64(len(graphs))
}

func benchAblation(b *testing.B, typ workload.GraphType, mode sim.TransferMode, newPol func() sim.Policy) {
	b.Helper()
	b.ReportAllocs()
	var avg float64
	for i := 0; i < b.N; i++ {
		avg = suiteAvgMakespan(b, typ, 4, mode, newPol)
	}
	b.ReportMetric(avg, "avg_makespan_ms")
}

// Ablation: APT's flexibility factor across the paper's α grid (the
// valley of Figures 7/9 as bench metrics).
func BenchmarkAblationAPTAlpha1_5(b *testing.B) {
	benchAblation(b, workload.Type2, sim.TransferMax, func() sim.Policy { return core.New(1.5) })
}
func BenchmarkAblationAPTAlpha4(b *testing.B) {
	benchAblation(b, workload.Type2, sim.TransferMax, func() sim.Policy { return core.New(4) })
}
func BenchmarkAblationAPTAlpha16(b *testing.B) {
	benchAblation(b, workload.Type2, sim.TransferMax, func() sim.Policy { return core.New(16) })
}

// Ablation: the future-work APT-R variant vs plain APT at the same α.
func BenchmarkAblationAPTR(b *testing.B) {
	benchAblation(b, workload.Type2, sim.TransferMax, func() sim.Policy { return core.NewR(4) })
}

// Ablation: thesis-described HEFT/PEFT vs the original textbook
// formulations (insertion-based EFT / OEFT).
func BenchmarkAblationHEFTThesis(b *testing.B) {
	benchAblation(b, workload.Type2, sim.TransferMax, func() sim.Policy { return policy.NewHEFT() })
}
func BenchmarkAblationHEFTTextbook(b *testing.B) {
	benchAblation(b, workload.Type2, sim.TransferMax, func() sim.Policy { return &policy.HEFT{Textbook: true} })
}
func BenchmarkAblationPEFTThesis(b *testing.B) {
	benchAblation(b, workload.Type2, sim.TransferMax, func() sim.Policy { return policy.NewPEFT() })
}
func BenchmarkAblationPEFTTextbook(b *testing.B) {
	benchAblation(b, workload.Type2, sim.TransferMax, func() sim.Policy { return &policy.PEFT{Textbook: true} })
}

// Ablation: concurrent-link (max) vs serialized (sum) multi-predecessor
// transfers under APT on the dependency-heavy Type-2 suite.
func BenchmarkAblationTransferMax(b *testing.B) {
	benchAblation(b, workload.Type2, sim.TransferMax, func() sim.Policy { return core.New(4) })
}
func BenchmarkAblationTransferSum(b *testing.B) {
	benchAblation(b, workload.Type2, sim.TransferSum, func() sim.Policy { return core.New(4) })
}
