package policy

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/dfg"
	"repro/internal/radix"
	"repro/internal/sim"
)

// HEFT implements the heterogeneous earliest finish time policy of
// Topcuoglu et al. as the thesis describes and evaluates it (paper §2.5.3,
// Eq. 3–5): a static list scheduler that
//
//  1. ranks every task by its upward rank — the length of the critical
//     path from the task to the exit, using mean execution cost w̄ᵢ and
//     mean communication cost c̄ᵢⱼ (Eq. 3–4);
//  2. visits tasks in decreasing upward rank; and
//  3. assigns each "to the processor from A with the least sum of time
//     remaining of any previous kernel and execution time of the current
//     kernel on that processor" (the thesis's wording) — i.e. the
//     processor minimising booked-time-so-far plus execution time.
//
// The thesis's processor-selection rule is a simplification of Topcuoglu's
// original insertion-based earliest-finish-time search: it ignores
// data-ready times and idle gaps. Set Textbook to use the original
// EFT+insertion selection instead; the repository's ablation benches
// compare both (the textbook variant is markedly stronger on the paper's
// workloads — strong enough to beat APT — which is why reproducing the
// paper's Tables 8–10 requires the thesis flavor).
//
// The full schedule is computed in Prepare and released to the engine at
// time zero.
type HEFT struct {
	// Textbook selects Topcuoglu's original insertion-based EFT processor
	// selection instead of the thesis's simplified rule.
	Textbook bool

	plan    staticPlan
	memo    prepMemo
	scratch schedScratch
	order   []dfg.KernelID
	prio    []dfg.KernelID

	// RankU, exposed after Prepare for inspection and tests, maps each
	// kernel to its upward rank.
	RankU []float64
	// PlannedMakespanMs is the makespan the plan estimated (actuals differ;
	// see staticPlan).
	PlannedMakespanMs float64
}

// NewHEFT returns a HEFT policy.
func NewHEFT() *HEFT { return &HEFT{} }

// Name implements sim.Policy.
func (h *HEFT) Name() string { return "HEFT" }

// Prepare implements sim.Policy: compute upward ranks and the insertion-
// based EFT schedule. Prepare is a pure function of the cost oracle, so
// preparing the same instance for the same *Costs again only re-arms the
// cached plan (see prepMemo) — the path batch sweeps over one graph take.
func (h *HEFT) Prepare(c *sim.Costs) error {
	if h.memo.hit(c) {
		h.plan.rearm()
		return nil
	}
	h.memo.forget()
	g := c.Graph()
	n := g.NumKernels()
	h.RankU = grow(h.RankU, n)

	// Upward rank, computed in reverse topological order (Eq. 3):
	// rank_u(n_i) = w̄_i + max over successors (c̄_ij + rank_u(n_j)),
	// with rank_u(exit) = w̄_exit (Eq. 4).
	order := g.AppendTopoOrder(h.order[:0])
	h.order = order
	for i := n - 1; i >= 0; i-- {
		k := order[i]
		best := 0.0
		cMean := c.MeanTransfer(k)
		for _, s := range g.Succs(k) {
			if v := cMean + h.RankU[s]; v > best {
				best = v
			}
		}
		h.RankU[k] = c.MeanExec(k) + best
	}

	// Priority order: decreasing rank_u; ties by kernel ID for determinism.
	// Decreasing rank_u is a linear extension of the precedence order
	// because rank_u strictly decreases along every edge (w̄ > 0). The plan
	// is not set yet, so its radix scratch is free to lend.
	prio := grow(h.prio, n)
	h.prio = prio
	rankOrder(prio, h.RankU, &h.plan.byKey)

	var tasks []plannedTask
	var err error
	if h.Textbook {
		tasks, err = listSchedule(c, &h.scratch, prio, func(k dfg.KernelID, est, eft []float64) int {
			best := 0
			for p := 1; p < len(eft); p++ {
				if eft[p] < eft[best] {
					best = p
				}
			}
			return best
		})
		if err != nil {
			return err
		}
	} else {
		tasks = bookingSchedule(c, &h.scratch, prio, func(k dfg.KernelID, booked []float64) int {
			// Thesis rule: least (time remaining of previous kernels on p)
			// plus (execution time of k on p).
			best := 0
			bestV := math.Inf(1)
			row := c.ExecRow(k)
			for p := range booked {
				if v := booked[p] + row[p]; v < bestV {
					bestV, best = v, p
				}
			}
			return best
		})
	}
	h.PlannedMakespanMs = plannedMakespan(tasks)
	h.plan.set(tasks)
	h.memo.remember(c)
	return nil
}

// Select implements sim.Policy: release the precomputed schedule once.
func (h *HEFT) Select(*sim.State) []sim.Assignment { return h.plan.release() }

// rankOrder fills prio with the kernel IDs by decreasing rank, exact ties
// by ascending ID. From radix.MinLen kernels it radix-orders the IDs by
// ^Float64bits(rank): the complement turns descending ranks into ascending
// keys, and the order is stable, so equal ranks keep ID order. That is the
// comparison sort's order whenever every rank is +0, positive or +Inf, so a
// NaN, −0 or negative rank, like a short graph, takes the comparison sort.
func rankOrder(prio []dfg.KernelID, rank []float64, o *radix.Order) {
	if len(rank) >= radix.MinLen && complementKeys(o.Keys(len(rank)), rank) {
		for i, id := range o.Perm() {
			prio[i] = dfg.KernelID(id)
		}
		return
	}
	for i := range prio {
		prio[i] = dfg.KernelID(i)
	}
	slices.SortFunc(prio, byRankDesc(rank))
}

// byRankDesc compares kernel IDs by decreasing rank, exact ties by
// ascending ID. The rank comparison is three-way (no float equality), and
// the key is a total order, so a sort by it needs no stability.
func byRankDesc(rank []float64) func(a, b dfg.KernelID) int {
	return func(a, b dfg.KernelID) int {
		if rank[a] > rank[b] {
			return -1
		}
		if rank[a] < rank[b] {
			return 1
		}
		return cmp.Compare(a, b)
	}
}

// complementKeys sets keys[i] to ^Float64bits(xs[i]) and reports whether
// every xs[i] keys exactly (see radix.Key).
func complementKeys(keys []uint64, xs []float64) bool {
	for i, x := range xs {
		b, ok := radix.Key(x)
		if !ok {
			return false
		}
		keys[i] = ^b
	}
	return true
}
