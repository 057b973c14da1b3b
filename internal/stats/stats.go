// Package stats is the repository's statistical toolkit, shared by the
// simulator's stream, robustness and artifact summaries and the online
// scheduler's live telemetry.
//
// Three layers, from exact to streaming:
//
//   - Scalar helpers over samples: Mean, StdDev (population, the thesis's
//     λ standard deviation, Eq. 12), Sum, and the percentage-improvement
//     metric of §4.4 (Eq. 13–14).
//   - Exact order statistics: Quantile interpolates between closest
//     ranks, SummarizeInPlace condenses a sample into a Summary
//     (count/mean/std/extrema plus p50/p90/p95/p99). These retain and
//     sort the full sample — right for a simulated stream's sojourns.
//   - Streaming distributions: Histogram accumulates samples in
//     logarithmically spaced buckets, bounding relative quantile error by
//     its growth factor at O(log(max/min)) memory. Histograms with equal
//     growth Merge exactly, which is what lets the shards of a streaming
//     run — and the per-processor telemetry of the live scheduler —
//     aggregate latency distributions without retaining per-task samples.
//
// Every Summary-producing path defines the empty case as the zero value
// (no ±Inf leaks into JSON output).
package stats

import "math"

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation (divide by N), matching
// the thesis's λ standard-deviation definition (Eq. 12). Returns 0 for
// empty input.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Sum returns the total of the slice.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ImprovementPct implements the thesis's improvement metric (Eq. 13–14):
// the percentage by which `ours` improves on `baseline`:
//
//	(baseline - ours) / baseline * 100
//
// Positive means ours is better (smaller). Returns 0 when baseline is 0.
func ImprovementPct(baseline, ours float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - ours) / baseline * 100
}
