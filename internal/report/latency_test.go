package report

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestLatencyTable(t *testing.T) {
	rows := []LatencyRow{
		{Label: "APT", S: stats.SummarizeInPlace([]float64{1, 2, 3, 4})},
		{Label: "MET", S: stats.Summary{}}, // empty distribution renders too
	}
	tab := LatencyTable("latency", rows)
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"p99 ms", "APT", "MET", "4"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table misses %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Inf") {
		t.Errorf("empty row rendered non-finite values:\n%s", out)
	}
}

func TestLatencyFigure(t *testing.T) {
	x := []string{"0.5", "1", "2"}
	ys := map[string][]float64{"APT": {3, 2, 1}, "MET": {6, 5, 4}}
	f, err := LatencyFigure("λ vs p99", "gap ms", "p99 ms", x, []string{"APT", "MET"}, ys)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 || f.Series[0].Name != "APT" {
		t.Fatalf("series = %+v", f.Series)
	}
	if _, err := LatencyFigure("t", "x", "y", x, []string{"GONE"}, ys); err == nil {
		t.Error("missing series accepted")
	}
	if _, err := LatencyFigure("t", "x", "y", x, []string{"APT"}, map[string][]float64{"APT": {1}}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestHistogramFigure(t *testing.T) {
	h, err := stats.NewHistogram(1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1, 2, 2.5, 40, 41, 42} {
		h.Add(v)
	}
	f := HistogramFigure("sojourn", "latency", h)
	if len(f.X) == 0 || len(f.Series) != 1 {
		t.Fatalf("figure = %+v", f)
	}
	var total float64
	for _, y := range f.Series[0].Y {
		total += y
	}
	if total != 6 {
		t.Errorf("bucket counts sum to %v, want 6", total)
	}
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
}
