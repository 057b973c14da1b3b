package main

import (
	"math"
	"slices"
)

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile for it to mean more than one or two outliers.
const minBeyondTail = 10

// rank returns the 1-based nearest-rank index of the p-th percentile
// (0 < p <= 100) among n samples: the smallest rank r with r/n >= p/100.
// The epsilon keeps 99.9·1000/100 from rounding up past 999.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile of sorted, or NaN
// when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond returns how many of n samples rank above the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailOK reports whether the p-th percentile of n samples has at least
// minBeyondTail samples beyond it.
func tailOK(n int, p float64) bool { return beyond(n, p) >= minBeyondTail }

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the nearest-rank median of xs (any order).
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// liveSLOMs is the live-mix latency limit on the p99 sojourn of a step.
const liveSLOMs = 100

// step summarises one rate step of the live-mix open loop.
type step struct {
	rate     float64 // offered tasks per second
	tasks    int     // tasks due in the step
	failed   int     // tasks refused or settled with an error
	p99Ms    float64 // nearest-rank p99 sojourn, due time to Done
	queueMid int     // scheduler queue length half-way through the step
	queueEnd int     // scheduler queue length at the end of the step
}

// backlogGrew reports whether the queue kept growing through the second
// half of the step: more than 1% of the step's tasks were added to it.
func (s step) backlogGrew() bool {
	return float64(s.queueEnd-s.queueMid) > 0.01*float64(s.tasks)
}

// withinSLO reports whether the step met the latency limit without
// failures or a growing backlog.
func (s step) withinSLO() bool {
	return s.failed == 0 && s.p99Ms <= liveSLOMs && !s.backlogGrew()
}

// maxRateWithinSLO returns the highest offered rate whose step, and every
// lower step, met the SLO; 0 when the lowest step already missed it.
// Steps must be ordered by increasing rate.
func maxRateWithinSLO(steps []step) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.withinSLO() {
			break
		}
		best = s.rate
	}
	return best
}
