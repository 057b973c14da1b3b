package apt

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
)

// TestScaleSmoke is the CI guard for the large-graph path: a 1k-kernel
// layered DAG and a 1k-kernel fork-join mesh run end to end (validation
// included) on a 12-processor machine under both a dynamic and a static
// policy. It stays fast enough for the race-enabled test matrix.
func TestScaleSmoke(t *testing.T) {
	m, err := ScaleMachine(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	layered, err := GenerateLayeredWorkload(1000, 0, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	forkjoin, err := GenerateForkJoinWorkload(1000, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		w    *Workload
		p    Policy
	}{
		{"layered/APT", layered, APT(4)},
		{"layered/HEFT", layered, HEFT()},
		{"forkjoin/APT", forkjoin, APT(4)},
		{"forkjoin/PEFT", forkjoin, PEFT()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.w, m, tc.p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if kernels := res.Kernels(); len(kernels) != 1000 {
				t.Fatalf("kernels = %d", len(kernels))
			}
			if res.MakespanMs <= 0 {
				t.Fatalf("makespan = %v", res.MakespanMs)
			}
		})
	}
}

func TestScaleGeneratorShapes(t *testing.T) {
	w, err := GenerateLayeredWorkload(5000, 10, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumKernels() != 5000 {
		t.Fatalf("layered kernels = %d", w.NumKernels())
	}
	// Bounded fan-in: at most n·fanIn edges, and at least one per non-entry.
	if w.NumDeps() > 5000*4 {
		t.Fatalf("layered deps = %d exceeds fan-in bound", w.NumDeps())
	}
	if w.NumDeps() < 4000 {
		t.Fatalf("layered deps = %d suspiciously sparse", w.NumDeps())
	}

	fj, err := GenerateForkJoinWorkload(1300, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fj.NumKernels() != 1300 {
		t.Fatalf("forkjoin kernels = %d", fj.NumKernels())
	}

	if _, err := GenerateLayeredWorkload(0, 0, 0, 1); err == nil {
		t.Error("expected error for zero-kernel layered workload")
	}
	if _, err := GenerateForkJoinWorkload(-1, 0, 1); err == nil {
		t.Error("expected error for negative fork-join workload")
	}
	if _, err := ScaleMachine(0, 4); err == nil {
		t.Error("expected error for zero-processor machine")
	}
}

// resultFingerprint serialises the exported surface of a result, its
// per-kernel rows included, for exact comparison across runs.
func resultFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Result  *Result
		Kernels []KernelRun
	}{res, res.Kernels()})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestScaleBatchDeterminism proves a 10k-kernel RunBatch is byte-identical
// across worker counts (1, 4, NumCPU): worker-memoised cost oracles and
// policy instances must never leak order dependence into results.
func TestScaleBatchDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-kernel batch in -short mode")
	}
	w, err := GenerateLayeredWorkload(10_000, 0, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ScaleMachine(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Six configs over the same workload: an α pair, two static policies
	// (exercising prepared-plan reuse), one dynamic baseline and one paced
	// variant — enough to keep several workers busy at once.
	configs := []RunConfig{
		{Workload: w, Machine: m, Policy: APT(2)},
		{Workload: w, Machine: m, Policy: APT(4)},
		{Workload: w, Machine: m, Policy: HEFT()},
		{Workload: w, Machine: m, Policy: PEFT()},
		{Workload: w, Machine: m, Policy: SPN()},
		{Workload: w, Machine: m, Policy: HEFT(), Options: &Options{SchedOverheadMs: 1}},
	}
	var baseline []string
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		results, err := RunBatch(context.Background(), configs, &BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		prints := make([]string, len(results))
		for i, res := range results {
			prints[i] = resultFingerprint(t, res)
		}
		if baseline == nil {
			baseline = prints
			continue
		}
		for i := range prints {
			if prints[i] != baseline[i] {
				t.Fatalf("workers=%d: config %d result differs from single-worker baseline", workers, i)
			}
		}
	}
}

// withProcs runs fn under GOMAXPROCS=procs and restores the previous
// value.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestScaleLaneDeterminism guards against in-run parallelism coming back:
// one run is sequential, so a 10k-kernel run must be byte-identical under
// GOMAXPROCS 1, 2, 4 and one per CPU, under both a dynamic and a static
// policy. Cost preparation, validation and the per-kernel rows once split
// their loops across up to GOMAXPROCS goroutines, and this test compared
// those lane counts.
func TestScaleLaneDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-kernel GOMAXPROCS matrix in -short mode")
	}
	w, err := GenerateLayeredWorkload(10_000, 0, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ScaleMachine(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{APT(4), HEFT()} {
		var baseline string
		for _, procs := range []int{1, 2, 4, runtime.NumCPU()} {
			var res *Result
			withProcs(procs, func() { res, err = Run(w, m, pol, nil) })
			if err != nil {
				t.Fatalf("%v GOMAXPROCS=%d: %v", pol, procs, err)
			}
			fp := resultFingerprint(t, res)
			if baseline == "" {
				baseline = fp
				continue
			}
			if fp != baseline {
				t.Fatalf("%v GOMAXPROCS=%d: result differs from the GOMAXPROCS=1 run", pol, procs)
			}
		}
	}
}

// TestScale1MDeterminism drives the engine at the million-kernel design
// point: one 1M-kernel layered DAG scheduled under GOMAXPROCS=1 and under
// one proc per CPU must agree byte for byte, which guards against in-run
// parallelism coming back (see TestScaleLaneDeterminism). Skipped under
// -short and under -race — the two runs move gigabytes of cost table and
// placement state (the 10k matrix above runs under -race in CI).
func TestScale1MDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-kernel run in -short mode")
	}
	if raceEnabled {
		t.Skip("1M-kernel run under the race detector")
	}
	w, err := GenerateLayeredWorkload(1_000_000, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ScaleMachine(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	var serial *Result
	withProcs(1, func() { serial, err = Run(w, m, HEFT(), nil) })
	if err != nil {
		t.Fatal(err)
	}
	serialRows := serial.Kernels()
	if len(serialRows) != 1_000_000 {
		t.Fatalf("kernels = %d", len(serialRows))
	}
	var parallel *Result
	withProcs(runtime.NumCPU(), func() { parallel, err = Run(w, m, HEFT(), nil) })
	if err != nil {
		t.Fatal(err)
	}
	// Field-by-field comparison instead of a JSON fingerprint: marshalling
	// two million KernelRuns would cost more memory than the runs themselves.
	parallelRows := parallel.Kernels()
	if len(parallelRows) != len(serialRows) {
		t.Fatalf("kernel rows %d vs %d", len(parallelRows), len(serialRows))
	}
	for i := range serialRows {
		if serialRows[i] != parallelRows[i] {
			t.Fatalf("kernel row %d differs between GOMAXPROCS 1 and one per CPU", i)
		}
	}
	if len(parallel.res.ProcStats) != len(serial.res.ProcStats) {
		t.Fatalf("proc rows %d vs %d", len(parallel.res.ProcStats), len(serial.res.ProcStats))
	}
	for i := range serial.res.ProcStats {
		if serial.res.ProcStats[i] != parallel.res.ProcStats[i] {
			t.Fatalf("proc row %d differs between GOMAXPROCS 1 and one per CPU", i)
		}
	}
	if serial.MakespanMs != parallel.MakespanMs ||
		serial.LambdaTotalMs != parallel.LambdaTotalMs {
		t.Fatal("headline metrics differ between GOMAXPROCS 1 and one per CPU")
	}
}
