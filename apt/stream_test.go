package apt

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func mustKernelStream(t *testing.T, n int, seed int64) *Workload {
	t.Helper()
	w, err := GenerateKernelStream(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestArrivalValidationRun pins the public-API contract: wrong-length,
// negative and non-monotone arrival schedules each produce a typed
// *ArrivalError from Run instead of a panic or silent acceptance.
func TestArrivalValidationRun(t *testing.T) {
	w := mustKernelStream(t, 3, 1)
	m := PaperMachine(4)
	cases := []struct {
		name     string
		arrivals []float64
		reason   string
		kernel   int
	}{
		{"wrong length", []float64{1, 2}, ArrivalLength, -1},
		{"negative", []float64{0, -5, 6}, ArrivalNegative, 1},
		{"NaN", []float64{0, math.NaN(), 6}, ArrivalNegative, 1},
		{"non-monotone", []float64{0, 9, 6}, ArrivalNonMonotone, 2},
	}
	for _, c := range cases {
		_, err := Run(w, m, APT(4), &Options{Arrivals: c.arrivals})
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		var ae *ArrivalError
		if !errors.As(err, &ae) {
			t.Errorf("%s: error %v is not an *ArrivalError", c.name, err)
			continue
		}
		if ae.Reason != c.reason || ae.Kernel != c.kernel {
			t.Errorf("%s: got reason %q kernel %d, want %q kernel %d",
				c.name, ae.Reason, ae.Kernel, c.reason, c.kernel)
		}
	}
	// A valid schedule still runs.
	if _, err := Run(w, m, APT(4), &Options{Arrivals: []float64{0, 1, 2}}); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

// TestArrivalValidationRunBatch checks that batch failures are
// config-indexed: the *ConfigError names the bad config and unwraps to the
// *ArrivalError.
func TestArrivalValidationRunBatch(t *testing.T) {
	w := mustKernelStream(t, 3, 1)
	m := PaperMachine(4)
	good := &Options{Arrivals: []float64{0, 1, 2}}
	bad := &Options{Arrivals: []float64{0, 4, 3}}
	results, err := RunBatch(context.Background(), []RunConfig{
		{Workload: w, Machine: m, Policy: APT(4), Options: good},
		{Workload: w, Machine: m, Policy: APT(4), Options: bad},
	}, nil)
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if results[0] == nil || results[1] != nil {
		t.Errorf("results = [%v, %v]; want [ok, nil]", results[0], results[1])
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Index != 1 {
		t.Fatalf("error %v does not carry config index 1", err)
	}
	var ae *ArrivalError
	if !errors.As(err, &ae) || ae.Reason != ArrivalNonMonotone {
		t.Fatalf("error %v does not unwrap to a non-monotone *ArrivalError", err)
	}
}

func TestRunStreamPoisson(t *testing.T) {
	shards, err := MakeStream(600, 200, 42, func(w *Workload, seed int64) ([]float64, error) {
		return PoissonArrivals(w, 5, seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(shards))
	}
	res, err := RunStream(context.Background(), shards, PaperMachine(4), APT(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernels != 600 {
		t.Errorf("kernels = %d, want 600", res.Kernels)
	}
	if len(res.SojournsMs) != 600 || res.Sojourn.Count != 600 {
		t.Errorf("sojourn accounting: raw %d, summary count %d", len(res.SojournsMs), res.Sojourn.Count)
	}
	if res.Sojourn.P99Ms < res.Sojourn.P50Ms || res.Sojourn.MaxMs < res.Sojourn.P99Ms {
		t.Errorf("sojourn percentiles inconsistent: %+v", res.Sojourn)
	}
	if res.Sojourn.P50Ms <= 0 {
		t.Errorf("p50 sojourn = %v, want > 0", res.Sojourn.P50Ms)
	}
	if res.QueueWait.MeanMs > res.Sojourn.MeanMs {
		t.Errorf("queue wait mean %v exceeds sojourn mean %v", res.QueueWait.MeanMs, res.Sojourn.MeanMs)
	}
	if res.OfferedPerSec <= 0 || res.CompletedPerSec <= 0 {
		t.Errorf("rates = %v offered, %v completed; want positive", res.OfferedPerSec, res.CompletedPerSec)
	}
	for i, ss := range res.Shards {
		if ss.Kernels != 200 {
			t.Errorf("shard %d kernels = %d", i, ss.Kernels)
		}
		if ss.MakespanMs <= 0 || ss.ArrivalSpanMs <= 0 {
			t.Errorf("shard %d spans: makespan %v, arrival %v", i, ss.MakespanMs, ss.ArrivalSpanMs)
		}
	}
}

// TestRunStreamDeterministic pins the acceptance criterion: identical
// results across reruns of the same seed, regardless of worker count.
func TestRunStreamDeterministic(t *testing.T) {
	build := func() []StreamShard {
		shards, err := MakeStream(400, 100, 7, func(w *Workload, seed int64) ([]float64, error) {
			return BurstyArrivals(w, BurstyConfig{BurstGapMs: 1, BurstMs: 20, IdleMs: 100}, seed)
		})
		if err != nil {
			t.Fatal(err)
		}
		return shards
	}
	a, err := RunStream(context.Background(), build(), PaperMachine(4), APT(4), &StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStream(context.Background(), build(), PaperMachine(4), APT(4), &StreamOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sojourn != b.Sojourn || a.QueueWait != b.QueueWait {
		t.Errorf("summaries differ across worker counts:\n%+v\n%+v", a.Sojourn, b.Sojourn)
	}
	if a.SimulatedMs != b.SimulatedMs || a.LambdaTotalMs != b.LambdaTotalMs {
		t.Errorf("aggregates differ: %v/%v vs %v/%v", a.SimulatedMs, a.LambdaTotalMs, b.SimulatedMs, b.LambdaTotalMs)
	}
	for i := range a.SojournsMs {
		if a.SojournsMs[i] != b.SojournsMs[i] {
			t.Fatalf("raw sojourn %d differs", i)
		}
	}
}

func TestRunStreamShardErrorsAreIndexed(t *testing.T) {
	good := StreamShard{Workload: mustKernelStream(t, 2, 1), Arrivals: []float64{0, 1}}
	bad := StreamShard{Workload: mustKernelStream(t, 2, 2), Arrivals: []float64{5, 1}}
	_, err := RunStream(context.Background(), []StreamShard{good, bad}, PaperMachine(4), APT(4), nil)
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Index != 1 {
		t.Fatalf("error %v does not carry shard index 1", err)
	}
	var ae *ArrivalError
	if !errors.As(err, &ae) || ae.Reason != ArrivalNonMonotone {
		t.Fatalf("error %v does not unwrap to *ArrivalError", err)
	}
	// Pacing via StreamOptions.Options.Arrivals is a misuse, not silent.
	if _, err := RunStream(context.Background(), []StreamShard{good}, PaperMachine(4), APT(4),
		&StreamOptions{Options: &Options{Arrivals: []float64{0, 1}}}); err == nil {
		t.Error("StreamOptions.Options.Arrivals accepted")
	}
}

func TestTraceStreamRebasesWindows(t *testing.T) {
	// 4 entries with a large global offset and an inter-window gap; window
	// size 2 gives two shards, both rebased to start at 0.
	trace := "# trace\n1000000\n1000001\n5000000\n5000002\n"
	times, err := ReadTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := TraceStream(times, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(shards))
	}
	res, err := RunStream(context.Background(), shards, PaperMachine(4), APT(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernels != 4 {
		t.Errorf("kernels = %d, want 4", res.Kernels)
	}
	// Rebasing: no shard simulates the 1000s lead-in or the window gap —
	// makespans stay at kernel-execution scale, far below the raw offsets.
	for i, ss := range res.Shards {
		if ss.MakespanMs > 100000 {
			t.Errorf("shard %d makespan %v, want rebased (no global offset)", i, ss.MakespanMs)
		}
	}
	if math.Abs(res.Shards[0].ArrivalSpanMs-1) > 1e-9 || math.Abs(res.Shards[1].ArrivalSpanMs-2) > 1e-9 {
		t.Errorf("arrival spans = %v, %v; want 1, 2", res.Shards[0].ArrivalSpanMs, res.Shards[1].ArrivalSpanMs)
	}
	// The offered rate covers the whole trace span — including the gap
	// between windows — not just the summed in-window spans.
	if math.Abs(res.ArrivalSpanMs-4000002) > 1e-6 {
		t.Errorf("stream arrival span = %v, want 4000002 (global trace span)", res.ArrivalSpanMs)
	}
	if want := 4.0 / 4000002 * 1000; math.Abs(res.OfferedPerSec-want) > 1e-9 {
		t.Errorf("offered rate = %v, want %v (trace span, not window spans)", res.OfferedPerSec, want)
	}
}

func TestRunStreamAcrossArrivalShapes(t *testing.T) {
	m := PaperMachine(4)
	gens := map[string]func(w *Workload, seed int64) ([]float64, error){
		"poisson": func(w *Workload, seed int64) ([]float64, error) { return PoissonArrivals(w, 3, seed) },
		"bursty": func(w *Workload, seed int64) ([]float64, error) {
			return BurstyArrivals(w, BurstyConfig{BurstGapMs: 1, BurstMs: 30, IdleMs: 60}, seed)
		},
		"diurnal": func(w *Workload, seed int64) ([]float64, error) {
			return DiurnalArrivals(w, DiurnalConfig{MeanGapMs: 3, PeriodMs: 200, Amplitude: 0.8}, seed)
		},
	}
	for name, gen := range gens {
		shards, err := MakeStream(200, 100, 5, gen)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := RunStream(context.Background(), shards, m, APT(4), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Sojourn.Count != 200 || res.Sojourn.P99Ms <= 0 {
			t.Errorf("%s: sojourn = %+v", name, res.Sojourn)
		}
	}
}

func TestResultLatencyFieldsThreaded(t *testing.T) {
	w := mustKernelStream(t, 20, 9)
	arr, err := PoissonArrivals(w, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, PaperMachine(4), APT(4), &Options{Arrivals: arr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sojourn.Count != 20 || res.QueueWait.Count != 20 {
		t.Fatalf("summary counts = %d/%d", res.Sojourn.Count, res.QueueWait.Count)
	}
	for _, k := range res.Kernels() {
		if math.Abs(k.SojournMs-(k.FinishMs-k.ArrivalMs)) > 1e-9 {
			t.Errorf("kernel %d sojourn %v != finish-arrival %v", k.Kernel, k.SojournMs, k.FinishMs-k.ArrivalMs)
		}
		if math.Abs(k.QueueWaitMs-(k.ExecStartMs-k.ArrivalMs)) > 1e-9 {
			t.Errorf("kernel %d queue wait mismatch", k.Kernel)
		}
		if k.ArrivalMs != arr[k.Kernel] {
			t.Errorf("kernel %d arrival %v != schedule %v", k.Kernel, k.ArrivalMs, arr[k.Kernel])
		}
	}
}
