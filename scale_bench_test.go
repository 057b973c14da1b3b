// Benchmarks for the large-graph scale path: end-to-end runs at 1k/10k/
// 100k kernels (CSR graphs, flat cost tables) and the prepared-policy
// reuse path — a repeated-graph sweep re-running one policy instance over
// the same cost oracle versus naively re-Preparing per run.
//
//	go test -run '^$' -bench 'BenchmarkScale|BenchmarkSweep' -benchmem
package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/apt"
	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchScale measures one full run — cost preparation, the policy's
// prepare, simulation, validation, result assembly — of a layered random
// DAG with n kernels on an 8-processor machine. Under HEFT, B/op across the
// sizes demonstrates the memory model's sub-linear growth per kernel (flat
// CSR and cost tables, no per-vertex allocations).
func benchScale(b *testing.B, n int, pol apt.Policy) {
	b.Helper()
	w, err := apt.GenerateLayeredWorkload(n, 0, 0, 7)
	if err != nil {
		b.Fatal(err)
	}
	m, err := apt.ScaleMachine(8, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := apt.Run(w, m, pol, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !(res.MakespanMs > 0) {
			b.Fatalf("makespan = %v", res.MakespanMs)
		}
	}
}

func BenchmarkScale1k(b *testing.B)   { benchScale(b, 1_000, apt.HEFT()) }
func BenchmarkScale10k(b *testing.B)  { benchScale(b, 10_000, apt.HEFT()) }
func BenchmarkScale100k(b *testing.B) { benchScale(b, 100_000, apt.HEFT()) }

// BenchmarkScale1M is the million-kernel design point of the memory diet:
// B/op divided by 10⁶ kernels is the bytes-per-kernel figure the benchgate
// caps (ci/benchgate -max-bpk). One op takes tens of seconds; CI's smoke
// pass runs it once, the regression gate a few times.
func BenchmarkScale1M(b *testing.B) { benchScale(b, 1_000_000, apt.HEFT()) }

// BenchmarkScaleAPT10k runs the dynamic policy at scale: APT(4) on the
// 10k-kernel layered DAG. About n/32 kernels wait at any event here, so
// this is where a per-event cost that grows with the ready list shows.
func BenchmarkScaleAPT10k(b *testing.B) { benchScale(b, 10_000, apt.APT(4)) }

// BenchmarkScaleDistinct10k is BenchmarkScale10k's DAG with each kernel's
// size offset by its index, under HEFT: every kernel is its own shape and
// its own output size, so the shape table and HEFT's mean-transfer memo
// save nothing and cost prep pays one table row per kernel. It guards the
// graphs that repeat no shape (DAG JSON with arbitrary sizes).
func BenchmarkScaleDistinct10k(b *testing.B) {
	const n = 10_000
	series, err := workload.ScaleSeries(n, 7)
	if err != nil {
		b.Fatal(err)
	}
	for i := range series {
		series[i].DataElems += int64(i)
	}
	g, err := workload.BuildScaleLayered(series, workload.DefaultScaleLayeredConfig(),
		rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	wb := apt.NewWorkload()
	for _, k := range g.Kernels() {
		wb.AddKernel(k.Name, k.DataElems)
	}
	for u := range g.Kernels() {
		for _, v := range g.Succs(dfg.KernelID(u)) {
			wb.AddDep(u, int(v))
		}
	}
	w, err := wb.Build()
	if err != nil {
		b.Fatal(err)
	}
	m, err := apt.ScaleMachine(8, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := apt.Run(w, m, apt.HEFT(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if !(res.MakespanMs > 0) {
			b.Fatalf("makespan = %v", res.MakespanMs)
		}
	}
}

// sweepFixture prepares one 10k-kernel cost oracle on a 16-processor
// machine for the repeated-graph sweep benches.
func sweepFixture(b *testing.B) *sim.Costs {
	b.Helper()
	series, err := workload.ScaleSeries(10_000, 7)
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.BuildScaleLayered(series, workload.DefaultScaleLayeredConfig(),
		rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	pb := platform.NewBuilder()
	kinds := []platform.Kind{platform.CPU, platform.GPU, platform.FPGA}
	for i := 0; i < 16; i++ {
		pb.AddProcessor(kinds[i%len(kinds)], "")
	}
	pb.SetUniformRate(platform.GBps(4))
	sys, err := pb.Build()
	if err != nil {
		b.Fatal(err)
	}
	costs, err := sim.PrepareCosts(g, sys, lut.Paper(), sim.CostConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return costs
}

// sweepConfigs is the number of configs per sweep iteration; the configs
// share the cost oracle and differ in scheduler overhead, the shape of an
// α-grid or arrival-gap scan over one graph.
const sweepConfigs = 100

// BenchmarkSweepRePrepare10k is the naive path: every config constructs a
// fresh PEFT instance, so each of the 100 runs pays the full Prepare (OCT
// table, ranks, visit order, plan) before simulating.
func BenchmarkSweepRePrepare10k(b *testing.B) {
	costs := sweepFixture(b)
	r := sim.NewRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < sweepConfigs; j++ {
			pol := policy.NewPEFT()
			if _, err := r.Run(costs, pol, sim.Options{SchedOverheadMs: float64(j)}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepPrepared10k is the prepared path: one PEFT instance is
// reused across the 100 configs, so Prepare memoises on the shared *Costs
// and only the simulation itself runs per config. The ns/op ratio against
// BenchmarkSweepRePrepare10k is the prepared-policy speedup; allocs/op
// stays flat in sweep length because the per-run state is pooled.
func BenchmarkSweepPrepared10k(b *testing.B) {
	costs := sweepFixture(b)
	r := sim.NewRunner()
	pol := policy.NewPEFT()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < sweepConfigs; j++ {
			if _, err := r.Run(costs, pol, sim.Options{SchedOverheadMs: float64(j)}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBatchSweepShared10k exercises the same reuse end to end through
// the public facade: a 100-config RunBatch over one workload and machine,
// where workers memoise the cost oracle and policy instances.
func BenchmarkBatchSweepShared10k(b *testing.B) {
	w, err := apt.GenerateLayeredWorkload(10_000, 0, 0, 7)
	if err != nil {
		b.Fatal(err)
	}
	m, err := apt.ScaleMachine(8, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := make([]apt.RunConfig, sweepConfigs)
	for j := range cfgs {
		cfgs[j] = apt.RunConfig{
			Workload: w, Machine: m, Policy: apt.HEFT(),
			Options: &apt.Options{SchedOverheadMs: float64(j)},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apt.RunBatch(context.Background(), cfgs, nil); err != nil {
			b.Fatal(err)
		}
	}
}
