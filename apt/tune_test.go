package apt

import (
	"math"
	"testing"
)

func TestTuneAlphaFacade(t *testing.T) {
	var cal []*Workload
	for i := 0; i < 3; i++ {
		w, err := GenerateWorkload(Type1, 50+10*i, int64(20170301+i*1000003))
		if err != nil {
			t.Fatal(err)
		}
		cal = append(cal, w)
	}
	m := PaperMachine(4)
	best, points, err := TuneAlpha(cal, m, []float64{1.5, 4, 64})
	if err != nil {
		t.Fatal(err)
	}
	if best != 4 {
		t.Errorf("best α = %v, want 4", best)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	if points[1].MakespanMs >= points[0].MakespanMs {
		t.Errorf("no improvement at α=4: %+v", points)
	}
}

func TestTuneAlphaFacadeValidation(t *testing.T) {
	w, _ := GenerateWorkload(Type1, 10, 1)
	if _, _, err := TuneAlpha([]*Workload{w}, nil, nil); err == nil {
		t.Error("nil machine accepted")
	}
	if _, _, err := TuneAlpha([]*Workload{nil}, PaperMachine(4), nil); err == nil {
		t.Error("nil workload accepted")
	}
	if _, _, err := TuneAlpha(nil, PaperMachine(4), nil); err == nil {
		t.Error("empty calibration accepted")
	}
}

// paperSuite returns the first n workloads of the thesis's Type-1 suite.
func paperSuite(t *testing.T, n int) []*Workload {
	t.Helper()
	wls, err := GenerateSuite(Type1, 20170301)
	if err != nil {
		t.Fatal(err)
	}
	return wls[:n]
}

func TestTuneAlphaFindsValleyBottom(t *testing.T) {
	best, points, err := TuneAlpha(paperSuite(t, 4), PaperMachine(4), []float64{1.5, 4, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if best != 4 {
		t.Errorf("best α = %v, want 4 (thresholdbrk)", best)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	if points[1].MakespanMs >= points[0].MakespanMs || points[1].MakespanMs >= points[2].MakespanMs {
		t.Errorf("valley not reflected in points: %+v", points)
	}
}

func TestTuneAlphaDefaultsAndValidation(t *testing.T) {
	cal := paperSuite(t, 1)
	best, points, err := TuneAlpha(cal, PaperMachine(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(defaultTuneAlphas) {
		t.Errorf("points = %d, want %d", len(points), len(defaultTuneAlphas))
	}
	for i, p := range points {
		if p.Alpha != defaultTuneAlphas[i] {
			t.Errorf("point %d at α=%v, want the grid's %v", i, p.Alpha, defaultTuneAlphas[i])
		}
	}
	if best < 1 {
		t.Errorf("best = %v", best)
	}
	for _, a := range []float64{0.5, 0, math.NaN()} {
		if _, _, err := TuneAlpha(cal, PaperMachine(4), []float64{4, a}); err == nil {
			t.Errorf("candidate α %v accepted", a)
		}
	}
}

// A one-kernel workload is α-insensitive: nw runs 112 ms on the CPU
// whatever the threshold, so every candidate ties and the smallest
// (strictest) α must win, wherever it sits in the candidate list.
func TestTuneAlphaTieBreaksSmall(t *testing.T) {
	wb := NewWorkload()
	wb.AddKernel("nw", 16777216)
	w, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	best, points, err := TuneAlpha([]*Workload{w}, PaperMachine(4), []float64{2, 1.5, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.MakespanMs != 112 {
			t.Fatalf("α=%v makespan %v, want the α-insensitive 112 ms", p.Alpha, p.MakespanMs)
		}
	}
	if best != 1.5 {
		t.Errorf("best α = %v on an exact tie, want the smallest candidate 1.5", best)
	}
}
