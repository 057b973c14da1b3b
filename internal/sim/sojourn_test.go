package sim_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/radix"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// summaryBits lists a Summary's fields as bit patterns, so two summaries
// compare bit for bit (−0 apart from +0).
func summaryBits(s stats.Summary) [9]uint64 {
	b := math.Float64bits
	return [9]uint64{uint64(s.Count), b(s.Mean), b(s.Std), b(s.Min), b(s.Max), b(s.P50), b(s.P90), b(s.P95), b(s.P99)}
}

// TestSojournSummaryCompletionOrder pins the engine's latency summaries on
// graphs above radix.MinLen: collected in completion order (the closed
// model's sojourns arrive ascending, the paced model's do not) and sorted
// by radix.Float64s, they must equal stats.SummarizeInPlace over the
// placements in kernel order, bit for bit, for dynamic and static
// policies, with and without ArrivalTimes, on a reused Runner.
func TestSojournSummaryCompletionOrder(t *testing.T) {
	c := readyLogCosts(t, 3000, 7)
	g := c.Graph()
	if g.NumKernels() < radix.MinLen {
		t.Fatalf("graph has %d kernels, below radix.MinLen", g.NumKernels())
	}
	arrivals, err := workload.PoissonArrivals(g, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRunner()
	for _, mk := range []func() sim.Policy{
		func() sim.Policy { return core.New(4) },
		func() sim.Policy { return policy.NewHEFT() },
	} {
		for _, opt := range []sim.Options{{}, {ArrivalTimes: arrivals}} {
			pol := mk()
			res, err := r.Run(c, pol, opt)
			if err != nil {
				t.Fatal(err)
			}
			sojourns := make([]float64, len(res.Placements))
			qwaits := make([]float64, len(res.Placements))
			for i, pl := range res.Placements {
				sojourns[i] = pl.Sojourn()
				qwaits[i] = pl.QueueWait()
			}
			paced := opt.ArrivalTimes != nil
			wantS, wantQ := stats.SummarizeInPlace(sojourns), stats.SummarizeInPlace(qwaits)
			if summaryBits(res.Sojourn) != summaryBits(wantS) {
				t.Errorf("%s paced=%v: sojourn summary %+v, kernel-order summary %+v",
					pol.Name(), paced, res.Sojourn, wantS)
			}
			if summaryBits(res.QueueWait) != summaryBits(wantQ) {
				t.Errorf("%s paced=%v: queue-wait summary %+v, kernel-order summary %+v",
					pol.Name(), paced, res.QueueWait, wantQ)
			}
		}
	}
}
