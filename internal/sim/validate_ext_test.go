package sim_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perturb"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// injectOverlap moves one kernel onto another processor where its interval
// overlaps another kernel's by more than either check tolerates, and
// reports whether it found such a pair. Only the processor changes, so
// every lifecycle check still passes and occupancy alone must reject.
func injectOverlap(res *sim.Result, r *rand.Rand) bool {
	pls := res.Placements
	tol := func(at float64) float64 { return 1e-9 * (1 + at) }
	for try := 0; try < 50; try++ {
		b := &pls[r.Intn(len(pls))]
		for i := range pls {
			a := &pls[i]
			if a.Proc != b.Proc && a.TransferStart < b.Finish-tol(b.Finish) && b.TransferStart < a.Finish-tol(a.Finish) {
				b.Proc = a.Proc
				return true
			}
		}
	}
	return false
}

// overlapProc returns the processor an overlap error names, or "" for any
// other error.
func overlapProc(err error) string {
	msg := err.Error()
	if !strings.Contains(msg, " overlap: ") {
		return ""
	}
	return strings.Fields(msg)[2]
}

// TestValidateMatchesSortedOracle is the start-log walk's property test:
// over random engine results — greedy, HEFT and APT on layered graphs of
// a few hundred kernels, with and without ArrivalTimes and Degrade, half
// of them with one overlap injected — Validate and the lifecycle checks
// followed by the sorted scan the walk replaced must
// accept and reject the same results. Lifecycle errors come from shared
// code and must match verbatim; an overlap must be reported on the same
// processor, though the pair named may differ. TestValidateZeroLengthTie
// pins the one disagreement known, which these results cannot contain.
func TestValidateMatchesSortedOracle(t *testing.T) {
	slow, err := perturb.NewSchedule([]perturb.Event{
		{Kind: perturb.ProcSlowdown, Proc: 1, Factor: 3, StartMs: 50, EndMs: 4000},
		{Kind: perturb.LinkSlowdown, From: 0, To: 2, Factor: 2, StartMs: 0, EndMs: 9000},
	})
	if err != nil {
		t.Fatal(err)
	}
	policies := []func() sim.Policy{
		sim.NewGreedy,
		func() sim.Policy { return policy.NewHEFT() },
		func() sim.Policy { return core.New(4) },
	}
	var accepted, overlaps int
	for seed := int64(1); seed <= 20; seed++ {
		c := readyLogCosts(t, 200+int(seed)*29, seed)
		g, sys := c.Graph(), c.System()
		arrivals, err := workload.PoissonArrivals(g, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		opts := []sim.Options{{}, {ArrivalTimes: arrivals}, {Degrade: slow}, {ArrivalTimes: arrivals, Degrade: slow}}
		r := rand.New(rand.NewSource(seed))
		for pi, mk := range policies {
			for oi, opt := range opts {
				res, err := sim.Run(c, mk(), opt)
				if err != nil {
					t.Fatalf("seed %d policy %d options %d: %v", seed, pi, oi, err)
				}
				injected := r.Intn(2) == 0 && injectOverlap(res, r)
				got := res.Validate(g, sys)
				want := sim.ValidateSorted(res, g, sys)
				switch {
				case (got == nil) != (want == nil):
					t.Fatalf("seed %d policy %d options %d (injected %v): Validate says %v, the sorted oracle %v",
						seed, pi, oi, injected, got, want)
				case got == nil:
					accepted++
				case overlapProc(got) != "" && overlapProc(got) == overlapProc(want):
					overlaps++
				case got.Error() != want.Error():
					t.Fatalf("seed %d policy %d options %d: Validate says %v, the sorted oracle %v",
						seed, pi, oi, got, want)
				}
				if injected == (got == nil) {
					t.Fatalf("seed %d policy %d options %d: injected %v, Validate says %v",
						seed, pi, oi, injected, got)
				}
			}
		}
	}
	t.Logf("%d accepted, %d overlaps rejected on the same processor", accepted, overlaps)
	if accepted < 100 || overlaps < 100 {
		t.Errorf("only %d accepted and %d overlap cases; the seeds no longer exercise both sides", accepted, overlaps)
	}
}
