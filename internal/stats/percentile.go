package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample, interpolating linearly between closest ranks. It returns 0 for
// an empty sample, clamping q into [0, 1]. Callers with unsorted data
// sort once and query repeatedly.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Summary captures one metric's distribution: moments, extrema and the
// tail percentiles open-system latency evaluation reports. The zero value
// describes an empty sample set; unlike a raw minimum or maximum — ±Inf
// over no samples — every Summary field is finite, so Summaries embedded
// in results always JSON-encode.
type Summary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// SummarizeInPlace computes a Summary over the sample, sorting xs in place
// so hot paths can reuse one scratch buffer across calls. An empty input
// yields the zero Summary.
func SummarizeInPlace(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sort.Float64s(xs)
	return Summary{
		Count: len(xs),
		Mean:  Mean(xs),
		Std:   StdDev(xs),
		Min:   xs[0],
		Max:   xs[len(xs)-1],
		P50:   Quantile(xs, 0.50),
		P90:   Quantile(xs, 0.90),
		P95:   Quantile(xs, 0.95),
		P99:   Quantile(xs, 0.99),
	}
}
