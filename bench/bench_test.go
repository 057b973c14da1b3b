package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{10, 1}, {50, 5}, {75, 8}, {90, 9}, {95, 10}, {99, 10}, {100, 10}, {0.1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 99, 990}, {1000, 99.9, 999}, {1000, 50, 500}, {3, 50, 2}, {1, 99, 1}, {7, 100, 7}} {
		if got := rank(c.n, c.p); got != c.want {
			t.Errorf("rank(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, // 10 beyond
		{999, 99, false}, // rank 990: 9 beyond
		{100, 90, true},
		{99, 90, false},
		{40, 75, true},
		{39, 75, false},
		{0, 50, false},
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, p%v) = %v (beyond %d), want %v", c.n, c.p, got, beyond(c.n, c.p), c.want)
		}
	}
}

func TestBacklogGrowth(t *testing.T) {
	for _, c := range []struct {
		tasks, mid, end int
		grew            bool
	}{
		{1000, 5, 15, false}, // +10 is exactly 1%
		{1000, 5, 16, true},
		{1000, 40, 0, false}, // draining
		{100, 0, 2, true},
	} {
		s := step{tasks: c.tasks, queueMid: c.mid, queueEnd: c.end}
		if got := s.backlogGrew(); got != c.grew {
			t.Errorf("tasks %d, queue %d→%d: grew = %v, want %v", c.tasks, c.mid, c.end, got, c.grew)
		}
	}
}

func TestMaxRateWithinSLO(t *testing.T) {
	ok := func(rate float64) step { return step{rate: rate, tasks: 1000, p99Ms: 40} }
	slow := func(rate float64) step { s := ok(rate); s.p99Ms = 150; return s }
	failing := func(rate float64) step { s := ok(rate); s.failed = 1; return s }
	growing := func(rate float64) step { s := ok(rate); s.queueEnd = 50; return s }
	atLimit := func(rate float64) step { s := ok(rate); s.p99Ms = liveSLOMs; return s }
	for _, c := range []struct {
		name  string
		steps []step
		want  float64
	}{
		{"all within", []step{ok(120), ok(200), ok(300)}, 300},
		{"top too slow", []step{ok(120), ok(200), slow(300)}, 200},
		{"limit is inclusive", []step{ok(120), atLimit(200), slow(300)}, 200},
		{"a failure misses", []step{ok(120), failing(200), ok(300)}, 120},
		{"growing backlog misses", []step{ok(120), ok(200), growing(300)}, 200},
		{"lowest misses", []step{slow(120), ok(200), ok(300)}, 0},
		{"no steps", nil, 0},
	} {
		if got := maxRateWithinSLO(c.steps); got != c.want {
			t.Errorf("%s: max rate = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(3)), liveRates, 1e9, liveSchedulers)
	b := poissonSchedule(rand.New(rand.NewSource(3)), liveRates, 1e9, liveSchedulers)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules of one seed: %d and %d tasks", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("task %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].step < a[i-1].step {
			t.Fatalf("task %d due %v after %v: schedule not ordered", i, a[i].due, a[i-1].due)
		}
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := declared(t)
	for _, c := range []struct {
		defs []metricDef
		want map[string]string
	}{{endToEnd, e2e}, {perLayer, layers}} {
		if len(c.defs) != len(c.want) {
			t.Errorf("%d metrics defined, BENCHMARK.json declares %d", len(c.defs), len(c.want))
		}
		for _, d := range c.defs {
			if u, ok := c.want[d.name]; !ok || u != d.unit {
				t.Errorf("metric %s (%s): BENCHMARK.json has unit %q, declared %v", d.name, d.unit, u, ok)
			}
		}
	}
}

// TestQuickSmoke runs every workload for under a second, untraced and
// traced, and checks the result line: exactly the declared metrics, all
// finite, no failed operation.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	aptserve := filepath.Join(dir, "aptserve")
	if out, err := exec.Command("go", "build", "-o", aptserve, "repro/cmd/aptserve").CombinedOutput(); err != nil {
		t.Fatalf("building aptserve: %v\n%s", err, out)
	}
	e2e, layers := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			e := &env{root: "..", aptserve: aptserve, seed: defaultSeed, seconds: 0.6, trace: trace, scaleKernels: 1000}
			var stdout, stderr bytes.Buffer
			code := execute(e, w.name, filepath.Join(dir, w.name+".json"), &stdout, &stderr)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("%s trace=%v: exit %d, last line not a result: %v\n%s%s", w.name, trace, code, err, stdout.String(), stderr.String())
			}
			want := e2e
			if trace {
				want = layers
			}
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: exit %d, correct %v, %d/%d failed, %d metrics\n%s%s",
					w.name, trace, code, r.Correct, r.Failed, r.Attempted, len(r.Metrics), stdout.String(), stderr.String())
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want a finite value in %s", w.name, trace, name, m, ok, unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}
