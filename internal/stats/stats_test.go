package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{2, 4, 6}); !almostEq(got, 4) {
		t.Errorf("Mean = %v, want 4", got)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev(nil); got != 0 {
		t.Errorf("StdDev(nil) = %v", got)
	}
	if got := StdDev([]float64{5}); got != 0 {
		t.Errorf("StdDev single = %v", got)
	}
	// Population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEq(got, 2) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{3, -1, 7}); !almostEq(got, 9) {
		t.Errorf("Sum = %v", got)
	}
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %v, want 0", got)
	}
}

func TestImprovementPct(t *testing.T) {
	if got := ImprovementPct(100, 84); !almostEq(got, 16) {
		t.Errorf("ImprovementPct = %v, want 16", got)
	}
	if got := ImprovementPct(100, 110); !almostEq(got, -10) {
		t.Errorf("ImprovementPct = %v, want -10", got)
	}
	if got := ImprovementPct(0, 5); got != 0 {
		t.Errorf("ImprovementPct(0,_) = %v, want 0", got)
	}
}

// Property: stddev is translation invariant and non-negative.
func TestStdDevProperties(t *testing.T) {
	f := func(raw []float64, shiftRaw int16) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			xs = append(xs, x)
		}
		sd := StdDev(xs)
		if sd < 0 {
			return false
		}
		shift := float64(shiftRaw)
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = x + shift
		}
		return math.Abs(StdDev(ys)-sd) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
