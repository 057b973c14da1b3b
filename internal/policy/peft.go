package policy

import (
	"math"

	"repro/internal/dfg"
	"repro/internal/heaps"
	"repro/internal/sim"
)

// PEFT implements the predict earliest finish time policy of Arabnejad &
// Barbosa (paper §2.5.3, Eq. 6–7): a static list scheduler driven by an
// optimistic cost table (OCT). OCT(tᵢ, pₖ) is the longest optimistic path
// from tᵢ's children to the exit assuming tᵢ runs on pₖ, computed backwards
// over the DAG (Eq. 6). Tasks are visited by decreasing rank_oct — the mean
// of their OCT row (Eq. 7) — restricted to tasks whose predecessors are
// already scheduled, and each is placed on the processor minimising the
// optimistic EFT:
//
//	OEFT(tᵢ, pₖ) = EFT(tᵢ, pₖ) + OCT(tᵢ, pₖ)
//
// which looks one optimistic step ahead instead of committing to the
// locally earliest finish as HEFT does.
//
// As with HEFT, the thesis evaluates a simplified selection rule — "the
// assignments are made to the processor from A with the least sum of value
// from the cost table and execution time of the kernel on that processor",
// i.e. argmin over p of OCT(t, p) + w(t, p), with no queue-state or
// data-ready term — and that flavor is the default here. Set Textbook for
// Arabnejad & Barbosa's full OEFT = EFT + OCT selection with insertion.
type PEFT struct {
	// Textbook selects the original OEFT (insertion-based EFT + OCT)
	// processor selection instead of the thesis's simplified rule.
	Textbook bool

	plan    staticPlan
	memo    prepMemo
	scratch schedScratch
	octFlat []float64
	order   []dfg.KernelID
	indeg   []int32
	visit   []dfg.KernelID
	heapKs  []dfg.KernelID
	cbar    meanXfer

	// OCT, exposed after Prepare, is the optimistic cost table
	// [kernel][processor]. Rows alias one flat backing array.
	OCT [][]float64
	// RankOCT is the per-kernel mean OCT row.
	RankOCT []float64
	// PlannedMakespanMs is the plan's estimated makespan.
	PlannedMakespanMs float64
}

// NewPEFT returns a PEFT policy.
func NewPEFT() *PEFT { return &PEFT{} }

// Name implements sim.Policy.
func (pf *PEFT) Name() string { return "PEFT" }

// Prepare implements sim.Policy. Prepare is a pure function of the cost
// oracle, so preparing the same instance for the same *Costs again only
// re-arms the cached plan (OCT table, ranks and schedule are reused).
func (pf *PEFT) Prepare(c *sim.Costs) error {
	if pf.memo.hit(c) {
		pf.plan.rearm()
		return nil
	}
	pf.memo.forget()
	g := c.Graph()
	n := g.NumKernels()
	np := c.System().NumProcs()

	// OCT per Eq. 6, computed in reverse topological order. For exit tasks
	// every entry is zero. Rows slice one flat backing array so the table
	// is cache-contiguous and costs two allocations, not n+1.
	pf.octFlat = grow(pf.octFlat, n*np)
	for i := range pf.octFlat {
		pf.octFlat[i] = 0
	}
	if cap(pf.OCT) >= n {
		pf.OCT = pf.OCT[:n]
	} else {
		pf.OCT = make([][]float64, n)
	}
	for i := range pf.OCT {
		pf.OCT[i] = pf.octFlat[i*np : (i+1)*np : (i+1)*np]
	}
	order := g.AppendTopoOrder(pf.order[:0])
	pf.order = order
	clear(pf.cbar)
	for i := n - 1; i >= 0; i-- {
		ti := order[i]
		cMean := pf.cbar.of(c, ti)
		octRow := pf.OCT[ti]
		for pk := 0; pk < np; pk++ {
			best := 0.0
			for _, tj := range g.Succs(ti) {
				inner := math.Inf(1)
				succOCT := pf.OCT[tj]
				succExec := c.ExecRow(tj)
				for pw := 0; pw < np; pw++ {
					v := succOCT[pw] + succExec[pw]
					if pw != pk {
						v += cMean
					}
					if v < inner {
						inner = v
					}
				}
				if inner > best {
					best = inner
				}
			}
			octRow[pk] = best
		}
	}

	// rank_oct per Eq. 7.
	pf.RankOCT = grow(pf.RankOCT, n)
	for i := 0; i < n; i++ {
		var sum float64
		for pk := 0; pk < np; pk++ {
			sum += pf.OCT[i][pk]
		}
		pf.RankOCT[i] = sum / float64(np)
	}

	// Visit order: repeatedly take the highest-rank_oct task among those
	// whose predecessors are all scheduled (PEFT's ready list). rank_oct is
	// not monotone along edges, so unlike HEFT a global sort could violate
	// precedence; the ready-list loop cannot.
	visit := pf.visitOrder(g)

	var tasks []plannedTask
	var err error
	if pf.Textbook {
		tasks, err = listSchedule(c, &pf.scratch, visit, func(k dfg.KernelID, est, eft []float64) int {
			best := 0
			bestV := math.Inf(1)
			for p := 0; p < np; p++ {
				if v := eft[p] + pf.OCT[k][p]; v < bestV {
					bestV, best = v, p
				}
			}
			return best
		})
		if err != nil {
			return err
		}
	} else {
		tasks = bookingSchedule(c, &pf.scratch, visit, func(k dfg.KernelID, booked []float64) int {
			// Thesis rule: least (cost-table value + execution time).
			best := 0
			bestV := math.Inf(1)
			octRow := pf.OCT[k]
			execRow := c.ExecRow(k)
			for p := 0; p < np; p++ {
				if v := octRow[p] + execRow[p]; v < bestV {
					bestV, best = v, p
				}
			}
			return best
		})
	}
	pf.PlannedMakespanMs = plannedMakespan(tasks)
	pf.plan.set(tasks)
	pf.memo.remember(c)
	return nil
}

// visitOrder returns kernels by decreasing rank_oct constrained to
// precedence order: Kahn's algorithm with a binary max-heap frontier keyed
// by rank_oct (ties to lower ID), O(E log V) with pooled buffers.
func (pf *PEFT) visitOrder(g *dfg.Graph) []dfg.KernelID {
	n := g.NumKernels()
	rank := pf.RankOCT
	pf.indeg = grow(pf.indeg, n)
	indeg := pf.indeg
	heap := pf.heapKs[:0]
	// higher orders a before b in the frontier: larger rank first, ties to
	// the lower kernel ID.
	higher := func(a, b dfg.KernelID) bool {
		// Three-way rank comparison (no float equality): exact rank ties
		// fall through to the kernel-ID tie-break.
		if rank[a] > rank[b] {
			return true
		}
		if rank[a] < rank[b] {
			return false
		}
		return a < b
	}
	for i := 0; i < n; i++ {
		indeg[i] = int32(g.InDegree(dfg.KernelID(i)))
		if indeg[i] == 0 {
			heap = append(heap, dfg.KernelID(i))
			heaps.Up(heap, len(heap)-1, higher)
		}
	}
	out := pf.visit[:0]
	if cap(out) < n {
		out = make([]dfg.KernelID, 0, n)
	}
	for len(heap) > 0 {
		k := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		heaps.Down(heap, 0, higher)
		out = append(out, k)
		for _, s := range g.Succs(k) {
			indeg[s]--
			if indeg[s] == 0 {
				heap = append(heap, s)
				heaps.Up(heap, len(heap)-1, higher)
			}
		}
	}
	pf.heapKs = heap
	pf.visit = out
	return out
}

// Select implements sim.Policy.
func (pf *PEFT) Select(*sim.State) []sim.Assignment { return pf.plan.release() }
