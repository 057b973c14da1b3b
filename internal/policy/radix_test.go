package policy

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/radix"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scaleCosts prepares a 3000-kernel layered DAG (above radix.MinLen) on
// the paper machine. When infKernel is set, that kernel's LUT rows price
// +Inf on every kind, so it and every kernel upstream of it rank +Inf.
func scaleCosts(t *testing.T, seed int64, infKernel string) *sim.Costs {
	t.Helper()
	series, err := workload.ScaleSeries(3000, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.BuildScaleLayered(series, workload.DefaultScaleLayeredConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	tab := lut.Paper()
	if infKernel != "" {
		entries := tab.Entries()
		for i, e := range entries {
			if e.Kernel == infKernel {
				times := make(map[platform.Kind]float64, len(e.TimeMs))
				for kind := range e.TimeMs {
					times[kind] = math.Inf(1)
				}
				entries[i].TimeMs = times
			}
		}
		if tab, err = lut.New(entries); err != nil {
			t.Fatal(err)
		}
	}
	c, err := sim.PrepareCosts(g, platform.PaperSystem(4), tab, sim.CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// wantRankOrder is the comparison sort HEFT ran before its radix order,
// the test oracle.
func wantRankOrder(rank []float64) []dfg.KernelID {
	want := make([]dfg.KernelID, len(rank))
	for i := range want {
		want[i] = dfg.KernelID(i)
	}
	slices.SortFunc(want, byRankDesc(rank))
	return want
}

// TestRankOrderMatchesComparator compares rankOrder with the comparator on
// random ranks with heavy ties, +0, +Inf and subnormals, at lengths on both
// sides of radix.MinLen, and with a NaN, −0 or negative rank (the
// comparison-sort fallback). One Order serves every trial.
func TestRankOrderMatchesComparator(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	special := []float64{0, math.Inf(1), 5e-324, math.SmallestNonzeroFloat64 * 3}
	fallback := []float64{math.NaN(), math.Copysign(0, -1), -1}
	var o radix.Order
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(3 * radix.MinLen)
		rank := make([]float64, n)
		for i := range rank {
			switch r.Intn(4) {
			case 0:
				rank[i] = special[r.Intn(len(special))]
			case 1:
				rank[i] = float64(r.Intn(8)) // ties
			default:
				rank[i] = r.ExpFloat64() * 100
			}
		}
		if trial%4 == 3 && n > 0 {
			rank[r.Intn(n)] = fallback[trial/4%len(fallback)]
		}
		got := make([]dfg.KernelID, n)
		rankOrder(got, rank, &o)
		want := wantRankOrder(rank)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d): prio[%d] = %d (rank %v), comparator gives %d (rank %v)",
					trial, n, i, got[i], rank[got[i]], want[i], rank[want[i]])
			}
		}
	}
}

// TestHEFTPriorityOrderAtScale runs HEFT's Prepare on 3000-kernel graphs,
// one with a kernel whose LUT times are all +Inf, and requires its
// priority order to equal the comparator over its own ranks. The graphs
// must hold tied ranks, and the +Inf graph tied +Inf ranks, or the test
// proves nothing about ties.
func TestHEFTPriorityOrderAtScale(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		inf  string
	}{{"layered", 1, ""}, {"layered-seed2", 2, ""}, {"inf-lut", 1, "bfs"}} {
		t.Run(tc.name, func(t *testing.T) {
			c := scaleCosts(t, tc.seed, tc.inf)
			for _, textbook := range []bool{false, true} {
				h := &HEFT{Textbook: textbook}
				if err := h.Prepare(c); err != nil {
					t.Fatal(err)
				}
				want := wantRankOrder(h.RankU)
				if !slices.Equal(h.prio, want) {
					t.Fatalf("textbook=%v: priority order differs from the comparator", textbook)
				}
				ties, infs := 0, 0
				for i := 1; i < len(want); i++ {
					if h.RankU[want[i]] == h.RankU[want[i-1]] {
						ties++
					}
				}
				for _, r := range h.RankU {
					if math.IsInf(r, 1) {
						infs++
					}
				}
				if ties == 0 || (tc.inf != "") != (infs > 1) {
					t.Fatalf("inputs too weak: %d tied neighbours, %d +Inf ranks", ties, infs)
				}
			}
		})
	}
}

// wantPlan is sort.SliceStable by planned start, the order staticPlan.set
// used before its radix order.
func wantPlan(tasks []plannedTask) []plannedTask {
	want := slices.Clone(tasks)
	sort.SliceStable(want, func(i, j int) bool { return want[i].start < want[j].start })
	return want
}

// samePlan fails unless got and want hold the same tasks bit for bit.
func samePlan(t *testing.T, what string, got, want []plannedTask) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: plan holds %d tasks, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.kernel != w.kernel || g.proc != w.proc ||
			math.Float64bits(g.start) != math.Float64bits(w.start) ||
			math.Float64bits(g.finish) != math.Float64bits(w.finish) {
			t.Fatalf("%s: plan[%d] = %+v, sort.SliceStable gives %+v", what, i, g, w)
		}
	}
}

// TestStaticPlanMatchesStableSort compares the plan set by HEFT and PEFT,
// thesis (booking) and textbook (listSchedule) flavours, with
// sort.SliceStable over the schedule they planned, on 3000-kernel graphs.
// The planned starts must hold ties (every processor's first task starts
// at +0), so the stable tie order is exercised.
func TestStaticPlanMatchesStableSort(t *testing.T) {
	c := scaleCosts(t, 3, "")
	type planner struct {
		pol     sim.Policy
		plan    *staticPlan
		planned *[]plannedTask
	}
	var planners []planner
	for _, textbook := range []bool{false, true} {
		h := &HEFT{Textbook: textbook}
		pf := &PEFT{Textbook: textbook}
		planners = append(planners,
			planner{h, &h.plan, &h.scratch.tasks},
			planner{pf, &pf.plan, &pf.scratch.tasks})
	}
	for _, p := range planners {
		if err := p.pol.Prepare(c); err != nil {
			t.Fatal(err)
		}
		tasks := *p.planned
		if len(tasks) < radix.MinLen {
			t.Fatalf("%s planned %d tasks, below radix.MinLen", p.pol.Name(), len(tasks))
		}
		ties := 0
		want := wantPlan(tasks)
		for i := 1; i < len(want); i++ {
			if want[i].start == want[i-1].start {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("%s: no tied planned starts", p.pol.Name())
		}
		samePlan(t, p.pol.Name(), p.plan.tasks, want)
	}
}

// TestReplayPlanMatchesStableSort sets plans from recorded runs whose
// TransferStart values include ties, and NaN, −0 or negative values that
// take the sort.SliceStable fallback, and compares each plan with
// sort.SliceStable over the recorded placements.
func TestReplayPlanMatchesStableSort(t *testing.T) {
	c := scaleCosts(t, 4, "")
	src, err := sim.Run(c, NewHEFT(), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// +0 keeps the radix order; the others take the fallback.
	for _, start := range []float64{0, math.NaN(), math.Copysign(0, -1), -2} {
		tasks := make([]plannedTask, len(src.Placements))
		for i, pl := range src.Placements {
			tasks[i] = plannedTask{kernel: pl.Kernel, proc: pl.Proc, start: pl.TransferStart, finish: pl.Finish}
		}
		tasks[len(tasks)/2].start = start
		var sp staticPlan
		sp.set(tasks)
		samePlan(t, "recorded starts", sp.tasks, wantPlan(tasks))
	}
}

// TestHEFTWarmRePrepareAllocs pins the scratch reuse: a HEFT instance that
// has prepared once re-prepares for another cost oracle of the same size
// without allocating, so neither its priority order nor its plan grows
// radix scratch.
func TestHEFTWarmRePrepareAllocs(t *testing.T) {
	c1, c2 := scaleCosts(t, 1, ""), scaleCosts(t, 2, "")
	h := NewHEFT()
	if err := h.Prepare(c1); err != nil {
		t.Fatal(err)
	}
	next := c2
	allocs := testing.AllocsPerRun(10, func() {
		if err := h.Prepare(next); err != nil {
			t.Fatal(err)
		}
		if next == c1 {
			next = c2
		} else {
			next = c1
		}
	})
	if allocs != 0 {
		t.Fatalf("warm HEFT re-Prepare allocated %v times per call", allocs)
	}
}
