package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dfg"
)

// GraphType selects one of the two workload families of the thesis.
type GraphType int

const (
	// Type1 is the paper's "DFG Type-1": n-1 kernels in one fully parallel
	// level with no dependencies, followed by a single terminal kernel that
	// depends on all of them (paper Figure 3).
	Type1 GraphType = iota + 1
	// Type2 is the paper's "DFG Type-2": a mix of individual kernels,
	// dependent chains and diamond-shaped "kernel graph blocks" (one top
	// kernel, several independent middle kernels, one bottom kernel), with
	// consecutive blocks linked bottom-to-top (paper Figure 4).
	Type2
)

// String returns "DFG Type-1" / "DFG Type-2".
func (t GraphType) String() string {
	switch t {
	case Type1:
		return "DFG Type-1"
	case Type2:
		return "DFG Type-2"
	default:
		return fmt.Sprintf("GraphType(%d)", int(t))
	}
}

// BuildType1 arranges a series into a DFG Type-1 graph: series[0..n-2] form
// the parallel level, series[n-1] is the terminal kernel depending on all
// of them. A series of length 1 yields a single kernel; empty series are an
// error.
func BuildType1(series []KernelSpec) (*dfg.Graph, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("workload: Type-1 series is empty")
	}
	b := dfg.NewBuilder()
	n := len(series)
	ids := make([]dfg.KernelID, n)
	for i, s := range series {
		ids[i] = addSpec(b, s, 0)
	}
	if n > 1 {
		last := ids[n-1]
		for _, id := range ids[:n-1] {
			b.AddEdge(id, last)
		}
	}
	return b.Build()
}

// The Type-2 layout of paper Figure 4: three diamond kernel graph blocks,
// chains of three kernels, and a quarter of the stream spent on the
// individual/chain section.
const (
	type2Blocks   = 3
	type2ChainLen = 3
	type2FreeFrac = 0.25
)

// BuildType2 arranges a series into a DFG Type-2 graph.
//
// The thesis describes Type-2 informally (Figure 4): the stream contains
// individual kernels, chains of data-dependent kernels, and three diamond
// "kernel graph blocks"; blocks follow one another in the stream. We fix the
// following deterministic layout, consuming the series in order:
//
//  1. A "free" section of roughly a quarter of the n kernels alternating
//     between an individual kernel and a dependent chain of three kernels.
//  2. The remaining kernels split as evenly as possible across three
//     diamond blocks: first spec is the top, last is the bottom, the rest
//     are the independent middles (top -> each middle -> bottom).
//  3. Block i's bottom feeds block i+1's top.
func BuildType2(series []KernelSpec) (*dfg.Graph, error) {
	need := type2Blocks * 3
	if len(series) < need {
		return nil, fmt.Errorf("workload: Type-2 needs at least %d kernels for %d blocks, got %d",
			need, type2Blocks, len(series))
	}
	n := len(series)
	freeN := int(type2FreeFrac * float64(n))
	if n-freeN < need {
		freeN = n - need
	}

	b := dfg.NewBuilder()
	app := 0
	i := 0

	// Free section: alternate individual kernel / chain.
	individual := true
	for i < freeN {
		if individual {
			addSpec(b, series[i], app)
			i++
			app++
		} else {
			chain := type2ChainLen
			if rem := freeN - i; chain > rem {
				chain = rem
			}
			var prev dfg.KernelID = -1
			for c := 0; c < chain; c++ {
				id := addSpec(b, series[i], app)
				if prev >= 0 {
					b.AddEdge(prev, id)
				}
				prev = id
				i++
			}
			app++
		}
		individual = !individual
	}

	// Diamond blocks over the remaining kernels.
	blockN := n - i
	var prevBottom dfg.KernelID = -1
	for blk := 0; blk < type2Blocks; blk++ {
		size := blockN / type2Blocks
		if blk < blockN%type2Blocks {
			size++
		}
		specs := series[i : i+size]
		i += size
		// Kernels enter the stream in topological order: top, middles,
		// bottom — an application submits a sink after its inputs.
		top := addSpec(b, specs[0], app)
		mids := make([]dfg.KernelID, 0, size-2)
		for _, s := range specs[1 : size-1] {
			mid := addSpec(b, s, app)
			b.AddEdge(top, mid)
			mids = append(mids, mid)
		}
		bottom := addSpec(b, specs[size-1], app)
		for _, mid := range mids {
			b.AddEdge(mid, bottom)
		}
		if size == 2 {
			b.AddEdge(top, bottom)
		}
		if prevBottom >= 0 {
			b.AddEdge(prevBottom, top)
		}
		prevBottom = bottom
		app++
	}
	return b.Build()
}

// Build dispatches on the graph type.
func Build(t GraphType, series []KernelSpec) (*dfg.Graph, error) {
	switch t {
	case Type1:
		return BuildType1(series)
	case Type2:
		return BuildType2(series)
	default:
		return nil, fmt.Errorf("workload: unknown graph type %d", int(t))
	}
}

// ExperimentKernelCounts are the kernel counts of the thesis's ten
// experiments per graph type (Appendix B, Tables 15/16).
var ExperimentKernelCounts = []int{46, 58, 50, 73, 69, 81, 125, 93, 132, 157}

// DefaultSuiteSeed seeds the paper-facing experiment suites. The authors'
// random graphs were never published; any fixed seed defines an equivalent
// deterministic suite.
const DefaultSuiteSeed int64 = 20170301 // thesis approval date, March 2017

// Suite generates the ten-experiment workload suite for a graph type:
// one graph per entry of ExperimentKernelCounts, each from an independent
// deterministic random series over the paper catalog.
func Suite(t GraphType, seed int64) ([]*dfg.Graph, error) {
	cat := PaperCatalog()
	graphs := make([]*dfg.Graph, len(ExperimentKernelCounts))
	for i, n := range ExperimentKernelCounts {
		r := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
		series := cat.RandomSeries(r, n)
		g, err := Build(t, series)
		if err != nil {
			return nil, fmt.Errorf("workload: suite graph %d: %w", i+1, err)
		}
		graphs[i] = g
	}
	return graphs, nil
}

// MustSuite is Suite, panicking on error (the paper catalog always
// satisfies the generators' requirements).
func MustSuite(t GraphType, seed int64) []*dfg.Graph {
	gs, err := Suite(t, seed)
	if err != nil {
		panic(err)
	}
	return gs
}
