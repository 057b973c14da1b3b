package rule

import (
	"math"
	"testing"
)

func TestAlt(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name     string
		alpha, x float64
		pmin     int
		costs    []float64 // offered as processors 0, 1, 2, ...
		want     int       // -1: no alternative, wait for pmin
	}{
		{"cost equal to α·x is accepted", 2, 5, 0, []float64{1, 10}, 1},
		{"cost above α·x is rejected", 2, 5, 0, []float64{1, 10.000001}, -1},
		{"cheapest within threshold wins", 4, 5, 0, []float64{1, 9, 7, 8}, 2},
		{"equal costs go to the lower ID", 4, 5, 0, []float64{1, 7, 7}, 1},
		{"pmin is never returned", 4, 5, 1, []float64{8, 0.5, 9}, 0},
		{"pmin alone is no alternative", 4, 5, 0, []float64{5}, -1},
		{"NaN is never chosen", 4, 5, 0, []float64{1, nan, 12}, 2},
		{"+Inf is never chosen", 2, inf, 0, []float64{1, inf}, -1},
		{"nothing within threshold", 1.5, 2, 0, []float64{2, 3.5, 9}, -1},
		{"no candidates", 4, 5, 0, nil, -1},
	} {
		alt := NewAlt(tc.alpha, tc.x, tc.pmin)
		for p, c := range tc.costs {
			alt.Offer(p, c)
		}
		p, cost, ok := alt.Best()
		if ok != (tc.want >= 0) || (ok && p != tc.want) {
			t.Errorf("%s: Best() = %d, %v, %v; want processor %d", tc.name, p, cost, ok, tc.want)
			continue
		}
		if ok && cost != tc.costs[p] {
			t.Errorf("%s: Best() cost = %v, want %v", tc.name, cost, tc.costs[p])
		}
	}
}
