// Package bounds provides, for small dependency-free workloads, the exact
// optimum makespan — a yardstick the thesis never reports but that puts
// every policy's numbers in perspective (scheduling even independent tasks
// on unrelated machines is NP-hard, so the solver is exponential and
// capped).
package bounds

import (
	"fmt"
	"sort"

	"repro/internal/dfg"
	"repro/internal/platform"
	"repro/internal/sim"
)

// MaxExactKernels caps the exact solver's input size; beyond it the search
// space (np^n assignments) is impractical.
const MaxExactKernels = 16

// OptimalIndependent returns the minimum achievable makespan for a
// workload of independent kernels (no dependency edges, hence no
// transfers): the best partition of kernels across processors, where each
// processor executes its share back to back. It runs a branch-and-bound
// over assignments — exact but exponential, so the graph must have at most
// MaxExactKernels kernels and no edges.
func OptimalIndependent(c *sim.Costs) (float64, error) {
	g := c.Graph()
	if g.NumEdges() != 0 {
		return 0, fmt.Errorf("bounds: OptimalIndependent requires a dependency-free workload, got %d edges", g.NumEdges())
	}
	n := g.NumKernels()
	if n == 0 {
		return 0, nil
	}
	if n > MaxExactKernels {
		return 0, fmt.Errorf("bounds: exact search capped at %d kernels, got %d", MaxExactKernels, n)
	}
	np := c.System().NumProcs()

	// Order kernels by decreasing best execution time: big rocks first
	// gives branch-and-bound much earlier pruning.
	order := make([]dfg.KernelID, n)
	for i := range order {
		order[i] = dfg.KernelID(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		_, a := c.BestProc(order[i])
		_, b := c.BestProc(order[j])
		return a > b
	})

	// Remaining best-case work from position i onward, for the work-bound
	// prune.
	suffix := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		_, ms := c.BestProc(order[i])
		suffix[i] = suffix[i+1] + ms
	}

	load := make([]float64, np)
	// Incumbent: greedy LPT-style assignment gives a finite start.
	best := greedyMakespan(c, order)

	var dfs func(i int)
	dfs = func(i int) {
		if i == n {
			m := maxOf(load)
			if m < best {
				best = m
			}
			return
		}
		cur := maxOf(load)
		if cur >= best {
			return // current partial max already meets the incumbent
		}
		// Work-bound prune: even if every remaining kernel ran at its best
		// time spread perfectly, the busiest processor cannot drop below
		// (current total + remaining best work) / np.
		totalNow := 0.0
		for _, l := range load {
			totalNow += l
		}
		if (totalNow+suffix[i])/float64(np) >= best {
			return
		}
		k := order[i]
		// Skip truly interchangeable processors: same kind (identical exec
		// times for every kernel) and same current load lead to identical
		// residual states.
		type symKey struct {
			kind platform.Kind
			load float64
		}
		tried := map[symKey]bool{}
		for p := 0; p < np; p++ {
			pid := platform.ProcID(p)
			key := symKey{c.System().KindOf(pid), load[p]}
			if tried[key] {
				continue
			}
			tried[key] = true
			ms := c.Exec(k, pid)
			if load[p]+ms >= best {
				continue
			}
			load[p] += ms
			dfs(i + 1)
			load[p] -= ms
		}
	}
	dfs(0)
	return best, nil
}

// greedyMakespan is the LPT-flavoured incumbent: each kernel (big first)
// goes to the processor minimising resulting completion.
func greedyMakespan(c *sim.Costs, order []dfg.KernelID) float64 {
	np := c.System().NumProcs()
	load := make([]float64, np)
	for _, k := range order {
		best, bestV := 0, load[0]+c.Exec(k, platform.ProcID(0))
		for p := 1; p < np; p++ {
			if v := load[p] + c.Exec(k, platform.ProcID(p)); v < bestV {
				best, bestV = p, v
			}
		}
		load[best] = bestV
	}
	return maxOf(load)
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
