package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/online"
)

func testStats() online.Stats {
	return online.Stats{
		Submitted:      120,
		Completed:      115,
		Rejected:       3,
		Queued:         5,
		AltAssignments: 17,
		PerProc:        []int{50, 40, 25},
		PerProcBusyMs:  []float64{900, 750, 400},
		UptimeMs:       1000,
		Alpha:          4,
	}
}

func testHistogram(t testing.TB, n int) *stats.Histogram {
	t.Helper()
	h, err := stats.NewHistogram(1.05)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		h.Add(0.1 + 50*rng.Float64())
	}
	return h
}

// parseExposition splits text-format lines into sample name → value,
// verifying basic shape (HELP/TYPE precede samples, values parse).
func parseExposition(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	seenType := map[string]bool{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			seenType[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value %q: %v", key, valStr, err)
		}
		family := key
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		family = strings.TrimSuffix(family, "_bucket")
		family = strings.TrimSuffix(family, "_sum")
		family = strings.TrimSuffix(family, "_count")
		if !seenType[family] {
			t.Errorf("sample %q has no preceding # TYPE for %q", key, family)
		}
		samples[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestSchedulerMetricsExposition(t *testing.T) {
	soj := testHistogram(t, 500)
	qw := testHistogram(t, 500)
	e := SchedulerMetrics(testStats(), soj, qw)
	var sb strings.Builder
	if _, err := e.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, strings.NewReader(sb.String()))

	want := map[string]float64{
		"apt_alpha":                          4,
		"apt_queue_depth":                    5,
		"apt_submitted_total":                120,
		"apt_completed_total":                115,
		"apt_rejected_total":                 3,
		"apt_alt_assignments_total":          17,
		`apt_proc_completed_total{proc="1"}`: 40,
		`apt_proc_busy_ms_total{proc="2"}`:   400,
		`apt_proc_utilization{proc="0"}`:     0.9,
		"apt_sojourn_ms_count":               500,
		"apt_queue_wait_ms_count":            500,
	}
	for k, v := range want {
		got, ok := samples[k]
		if !ok {
			t.Errorf("missing sample %s", k)
		} else if got != v {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	if samples["apt_sojourn_ms_sum"] <= 0 {
		t.Errorf("apt_sojourn_ms_sum = %v, want > 0", samples["apt_sojourn_ms_sum"])
	}
}

// TestHistogramBucketsCumulative asserts the rendered bucket series is
// monotone non-decreasing in le order and that +Inf equals _count.
func TestHistogramBucketsCumulative(t *testing.T) {
	h := testHistogram(t, 2000)
	e := &Exposition{}
	e.Histogram("lat_ms", "help", h)
	var sb strings.Builder
	if _, err := e.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}

	type bucket struct {
		le  float64
		inf bool
		cum float64
	}
	var buckets []bucket
	var count float64
	for _, line := range strings.Split(sb.String(), "\n") {
		switch {
		case strings.HasPrefix(line, `lat_ms_bucket{le="`):
			rest := strings.TrimPrefix(line, `lat_ms_bucket{le="`)
			end := strings.Index(rest, `"}`)
			leStr, valStr := rest[:end], strings.TrimSpace(rest[end+2:])
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("bucket value: %v", err)
			}
			b := bucket{cum: v}
			if leStr == "+Inf" {
				b.inf = true
			} else {
				if b.le, err = strconv.ParseFloat(leStr, 64); err != nil {
					t.Fatalf("bucket le: %v", err)
				}
			}
			buckets = append(buckets, b)
		case strings.HasPrefix(line, "lat_ms_count "):
			var err error
			if count, err = strconv.ParseFloat(strings.Fields(line)[1], 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(buckets) < 3 {
		t.Fatalf("only %d buckets rendered", len(buckets))
	}
	last := buckets[len(buckets)-1]
	if !last.inf {
		t.Fatal("last bucket is not le=\"+Inf\"")
	}
	if last.cum != count {
		t.Fatalf("+Inf bucket %v != _count %v", last.cum, count)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].cum < buckets[i-1].cum {
			t.Fatalf("bucket %d not cumulative: %v after %v", i, buckets[i].cum, buckets[i-1].cum)
		}
		if !buckets[i].inf && !(buckets[i].le > buckets[i-1].le) {
			t.Fatalf("bucket %d le %v not increasing after %v", i, buckets[i].le, buckets[i-1].le)
		}
	}
}

func TestHistogramNilSkipped(t *testing.T) {
	e := &Exposition{}
	e.Histogram("lat_ms", "help", nil)
	if e.buf.Len() != 0 {
		t.Fatalf("nil histogram rendered %d bytes", e.buf.Len())
	}
}

func TestEscaping(t *testing.T) {
	e := &Exposition{}
	e.header("m", "line\none \\ two", "gauge")
	e.sample("m", "l", `va"l\ue`, 1)
	var sb strings.Builder
	if _, err := e.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `line\none \\ two`) {
		t.Errorf("help not escaped: %q", out)
	}
	if !strings.Contains(out, `l="va\"l\\ue"`) {
		t.Errorf("label value not escaped: %q", out)
	}
}

func TestWriteChromeTraceLive(t *testing.T) {
	events := []online.TraceEvent{
		{Seq: 1, Name: "a", Proc: 0, StartMs: 1, FinishMs: 3, QueueWaitMs: 0.5, EstMs: 2, BestEstMs: 2, ActualMs: 2},
		{Seq: 2, Name: "b", Proc: 1, Alt: true, StartMs: 2, FinishMs: 6, QueueWaitMs: 0, EstMs: 5, BestEstMs: 3, ActualMs: 4},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, 2, events); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &rows); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	if len(rows) != 4 { // 2 metadata + 2 slices
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	meta, slices := 0, 0
	for _, r := range rows {
		switch r["ph"] {
		case "M":
			meta++
		case "X":
			slices++
			args, ok := r["args"].(map[string]any)
			if !ok {
				t.Fatalf("slice row missing args: %v", r)
			}
			for _, k := range []string{"queue_wait_ms", "est_ms", "best_est_ms", "actual_ms", "seq"} {
				if _, ok := args[k]; !ok {
					t.Errorf("slice args missing %q", k)
				}
			}
		}
	}
	if meta != 2 || slices != 2 {
		t.Fatalf("meta=%d slices=%d, want 2/2", meta, slices)
	}
	// Slice for task b: ts and dur are microseconds.
	for _, r := range rows {
		if r["name"] == "b" {
			if ts := r["ts"].(float64); ts != 2000 {
				t.Errorf("b ts = %v, want 2000", ts)
			}
			if dur := r["dur"].(float64); dur != 4000 {
				t.Errorf("b dur = %v, want 4000", dur)
			}
		}
	}
}

// BenchmarkMetricsRender measures one full /v1/metrics render — the cost a
// scrape imposes — with realistically populated histograms.
func BenchmarkMetricsRender(b *testing.B) {
	st := testStats()
	soj := testHistogram(b, 100_000)
	qw := testHistogram(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := SchedulerMetrics(st, soj, qw)
		if _, err := e.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
