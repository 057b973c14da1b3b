package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/apt"
)

func TestExtIDsDispatch(t *testing.T) {
	r := NewRunner(Config{})
	ids := ExtIDs()
	if len(ids) != 8 {
		t.Fatalf("extension artifacts = %d, want 8", len(ids))
	}
	for _, id := range ids {
		if !strings.HasPrefix(id, "ext-") {
			t.Errorf("extension id %q missing prefix", id)
		}
		a, err := r.Artifact(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if a.Table == nil && a.Figure == nil && a.Text == "" {
			t.Errorf("%s produced empty artifact", id)
		}
	}
}

func TestExtLatencyRows(t *testing.T) {
	r := NewRunner(Config{})
	a, err := r.ExtLatency()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Table.Rows) != len(extLatencyPolicies) {
		t.Fatalf("rows = %d, want %d", len(a.Table.Rows), len(extLatencyPolicies))
	}
	for _, row := range a.Table.Rows {
		n, _ := strconv.Atoi(row[1])
		if n != extLatencyKernels {
			t.Errorf("%s: n = %d, want %d", row[0], n, extLatencyKernels)
		}
		p50, _ := strconv.ParseFloat(row[3], 64)
		p99, _ := strconv.ParseFloat(row[6], 64)
		if p50 <= 0 || p99 < p50 {
			t.Errorf("%s: p50 %v, p99 %v not a sane latency pair", row[0], p50, p99)
		}
	}
}

func TestExtPoliciesOrdering(t *testing.T) {
	r := NewRunner(Config{})
	a, err := r.ExtPolicies()
	if err != nil {
		t.Fatal(err)
	}
	// OLB must lose to APT on every graph; AR must lose on most.
	aptWinsVsOLB, aptWinsVsAR := 0, 0
	for _, row := range a.Table.Rows {
		apt, _ := strconv.ParseFloat(row[1], 64)
		olb, _ := strconv.ParseFloat(row[8], 64)
		ar, _ := strconv.ParseFloat(row[9], 64)
		if apt < olb {
			aptWinsVsOLB++
		}
		if apt < ar {
			aptWinsVsAR++
		}
	}
	if aptWinsVsOLB < 9 {
		t.Errorf("APT beat OLB on only %d/10 graphs", aptWinsVsOLB)
	}
	if aptWinsVsAR < 8 {
		t.Errorf("APT beat AR on only %d/10 graphs", aptWinsVsAR)
	}
}

func TestExtStreamShrinksLambda(t *testing.T) {
	r := NewRunner(Config{})
	paced, err := r.ExtStream()
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the unpaced Table 12 values: pacing must reduce
	// APT's λ on every graph (arrival spreading removes the quadratic
	// queueing accumulation).
	unpaced, err := r.Table12()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range paced.Table.Rows {
		pacedLam, _ := strconv.ParseFloat(row[1], 64)
		unpacedLam, _ := strconv.ParseFloat(unpaced.Table.Rows[i][1], 64)
		if pacedLam >= unpacedLam {
			t.Errorf("graph %d: paced λ %v >= unpaced %v", i+1, pacedLam, unpacedLam)
		}
	}
	// APT must still beat MET on λ for most paced graphs.
	wins := 0
	for _, row := range paced.Table.Rows {
		apt, _ := strconv.ParseFloat(row[1], 64)
		met, _ := strconv.ParseFloat(row[2], 64)
		if apt < met {
			wins++
		}
	}
	if wins < 7 {
		t.Errorf("paced APT λ beat MET on only %d/10 graphs", wins)
	}
}

func TestExtNoiseMonotoneDegradation(t *testing.T) {
	r := NewRunner(Config{})
	a, err := r.ExtNoise()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Table.Rows) != len(extNoiseFracs) {
		t.Fatalf("rows = %d", len(a.Table.Rows))
	}
	// APT stays the best column at every noise level.
	for _, row := range a.Table.Rows {
		apt, _ := strconv.ParseFloat(row[1], 64)
		for col := 2; col < len(row); col++ {
			v, _ := strconv.ParseFloat(row[col], 64)
			if v < apt {
				t.Errorf("noise %s: %s (%v) beat APT (%v)", row[0], a.Table.Headers[col], v, apt)
			}
		}
	}
	// The zero row must match the clean Table-10 average regime: first
	// cell equals APT's unperturbed average.
	zeroAPT, _ := strconv.ParseFloat(a.Table.Rows[0][1], 64)
	outs, err := r.Suite(apt.Type2, paperRate, apt.APT(4))
	if err != nil {
		t.Fatal(err)
	}
	// Cells are printed with three decimals, so allow formatting slack.
	if diff := zeroAPT - mean(outs, makespan); diff > 0.01 || diff < -0.01 {
		t.Errorf("zero-noise APT %v != clean average %v", zeroAPT, mean(outs, makespan))
	}
}

func TestExtBoundsGapsNonNegative(t *testing.T) {
	r := NewRunner(Config{})
	a, err := r.ExtBounds()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Table.Rows) != 10 {
		t.Fatalf("rows = %d", len(a.Table.Rows))
	}
	for _, row := range a.Table.Rows {
		opt, _ := strconv.ParseFloat(row[1], 64)
		if opt <= 0 {
			t.Errorf("optimal %v not positive", opt)
		}
		for col := 2; col < len(row); col++ {
			gap, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("unparseable gap %q", row[col])
			}
			if gap < -1e-6 {
				t.Errorf("negative optimality gap %v in %v", gap, row)
			}
		}
	}
}
