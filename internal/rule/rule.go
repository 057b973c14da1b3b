// Package rule holds the thesis's find2ndBestProc (Algorithm 1): when a
// task's best processor pmin is taken, choose the cheapest other
// candidate whose execution-plus-transfer estimate is within α·x (Eq. 8,
// x the estimate on pmin), ties to the lower ID; if none qualifies, the
// task waits. core.APT and the online scheduler both place through it,
// each feeding its own candidates and prices. It is an accumulator, not a
// function over an interface, so each offer inlines into the callers'
// loops.
package rule

import "math"

// Alt accumulates the alternative-processor choice for one task.
type Alt struct {
	threshold float64
	pmin      int
	best      int
	cost      float64
}

// NewAlt starts the choice for a task whose best processor pmin has the
// estimate x, under flexibility factor alpha.
func NewAlt(alpha, x float64, pmin int) Alt {
	return Alt{threshold: alpha * x, pmin: pmin, best: -1, cost: math.Inf(1)}
}

// Offer considers processor p at the given cost. Callers offer in
// ascending p, so the strict comparison breaks ties to the lower ID.
// pmin, costs above the threshold, NaN and +Inf are never chosen; the
// pmin test comes last because most offers fail on cost.
func (a *Alt) Offer(p int, cost float64) {
	if cost <= a.threshold && cost < a.cost && p != a.pmin {
		a.best, a.cost = p, cost
	}
}

// Best returns the chosen alternative and its cost; ok is false when no
// offer qualified.
func (a *Alt) Best() (p int, cost float64, ok bool) {
	return a.best, a.cost, a.best >= 0
}
