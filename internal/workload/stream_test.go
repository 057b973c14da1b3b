package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dfg"
)

func streamGraph(t *testing.T, n int) *dfg.Graph {
	t.Helper()
	c := PaperCatalog()
	series := c.RandomSeries(rand.New(rand.NewSource(1)), n)
	g, err := BuildType2(series)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPoissonArrivalsShape(t *testing.T) {
	g := streamGraph(t, 40)
	at, err := PoissonArrivals(g, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(at) != g.NumKernels() {
		t.Fatalf("len = %d, want %d", len(at), g.NumKernels())
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatalf("arrivals not monotone at %d: %v < %v", i, at[i], at[i-1])
		}
	}
	// Mean gap should be within 3x of the requested mean for 40 samples.
	mean := at[len(at)-1] / float64(len(at)-1)
	if mean < 100/3.0 || mean > 300 {
		t.Errorf("empirical mean gap %v far from 100", mean)
	}
	// Dependencies never arrive before their predecessors.
	for u := 0; u < g.NumKernels(); u++ {
		for _, v := range g.Succs(dfg.KernelID(u)) {
			if at[v] < at[u] {
				t.Fatalf("successor %d arrives before predecessor %d", v, u)
			}
		}
	}
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	g := streamGraph(t, 20)
	a, _ := PoissonArrivals(g, 50, 3)
	b, _ := PoissonArrivals(g, 50, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("not deterministic at %d", i)
		}
	}
}

func TestPoissonArrivalsZeroGap(t *testing.T) {
	g := streamGraph(t, 10)
	at, err := PoissonArrivals(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range at {
		if v != 0 {
			t.Fatalf("zero gap should give all-zero arrivals, got %v", at)
		}
	}
	if _, err := PoissonArrivals(g, -1, 1); err == nil {
		t.Error("negative gap accepted")
	}
}

func TestBurstyArrivals(t *testing.T) {
	g := streamGraph(t, 200)
	cfg := BurstyConfig{BurstGapMs: 2, BurstMs: 50, IdleMs: 500}
	at, err := BurstyArrivals(g, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(at) != g.NumKernels() {
		t.Fatalf("len = %d, want %d", len(at), g.NumKernels())
	}
	var maxGap float64
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatalf("arrivals not monotone at %d", i)
		}
		if gap := at[i] - at[i-1]; gap > maxGap {
			maxGap = gap
		}
	}
	// Burstiness must show: some inter-arrival gap spans an idle period,
	// far beyond the in-burst mean of 2ms.
	if maxGap < 50 {
		t.Errorf("max gap %v, want an idle-period gap >> burst gap 2", maxGap)
	}
	// Determinism.
	again, _ := BurstyArrivals(g, cfg, 11)
	for i := range at {
		if at[i] != again[i] {
			t.Fatalf("not deterministic at %d", i)
		}
	}
	// IdleMs = 0 degenerates to Poisson pacing: still monotone, no error.
	if _, err := BurstyArrivals(g, BurstyConfig{BurstGapMs: 2, BurstMs: 50}, 1); err != nil {
		t.Errorf("IdleMs=0 rejected: %v", err)
	}
	// Validation.
	for _, bad := range []BurstyConfig{
		{BurstGapMs: -1, BurstMs: 50},
		{BurstGapMs: 2, BurstMs: 0},
		{BurstGapMs: 2, BurstMs: 50, IdleMs: -1},
	} {
		if _, err := BurstyArrivals(g, bad, 1); err == nil {
			t.Errorf("invalid config %+v accepted", bad)
		}
	}
}

func TestDiurnalArrivals(t *testing.T) {
	g := streamGraph(t, 400)
	cfg := DiurnalConfig{MeanGapMs: 10, PeriodMs: 2000, Amplitude: 0.9}
	at, err := DiurnalArrivals(g, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	// The empirical mean gap should sit near MeanGapMs (thinning preserves
	// the average rate); allow a generous band for 400 samples.
	mean := at[len(at)-1] / float64(len(at)-1)
	if mean < 10/3.0 || mean > 30 {
		t.Errorf("empirical mean gap %v far from 10", mean)
	}
	again, _ := DiurnalArrivals(g, cfg, 5)
	for i := range at {
		if at[i] != again[i] {
			t.Fatalf("not deterministic at %d", i)
		}
	}
	for _, bad := range []DiurnalConfig{
		{MeanGapMs: 0, PeriodMs: 100},
		{MeanGapMs: 10, PeriodMs: 0},
		{MeanGapMs: 10, PeriodMs: 100, Amplitude: 1},
		{MeanGapMs: 10, PeriodMs: 100, Amplitude: -0.1},
	} {
		if _, err := DiurnalArrivals(g, bad, 1); err == nil {
			t.Errorf("invalid config %+v accepted", bad)
		}
	}
}

// TestTraceArrivals reads a recorded arrival trace: comments and blank
// lines are skipped, and negative, non-finite, non-monotone and garbage
// timestamps are refused.
func TestTraceArrivals(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# recorded arrivals\n\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&sb, "%g\n", float64(i)*2.5)
	}
	at, err := ReadTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(at) != 10 || at[1] != 2.5 || at[9] != 22.5 {
		t.Fatalf("trace = %v", at)
	}
	if at, err := ReadTrace(strings.NewReader("")); err != nil || len(at) != 0 {
		t.Errorf("empty trace = %v, %v; want no timestamps", at, err)
	}
	for _, bad := range []string{"1\n-2\n", "1\nInf\n", "NaN\n", "5\n4\n", "5\nbogus\n"} {
		if _, err := ReadTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("trace %q accepted", bad)
		}
	}
}

func TestIndependentStream(t *testing.T) {
	g, err := Independent(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumKernels() != 50 {
		t.Errorf("kernels = %d, want 50", g.NumKernels())
	}
	if g.NumEdges() != 0 {
		t.Errorf("edges = %d, want 0 (independent kernels)", g.NumEdges())
	}
	again, _ := Independent(50, 3)
	for i := 0; i < 50; i++ {
		a, b := g.Kernel(dfg.KernelID(i)), again.Kernel(dfg.KernelID(i))
		if a.Name != b.Name || a.DataElems != b.DataElems {
			t.Fatalf("not deterministic at kernel %d", i)
		}
	}
	if _, err := Independent(0, 1); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestPeriodicArrivals(t *testing.T) {
	g := streamGraph(t, 10)
	at, err := PeriodicArrivals(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range at {
		if v != float64(i)*5 {
			t.Fatalf("arrival %d = %v, want %v", i, v, float64(i)*5)
		}
	}
	if _, err := PeriodicArrivals(g, -5); err == nil {
		t.Error("negative gap accepted")
	}
}
