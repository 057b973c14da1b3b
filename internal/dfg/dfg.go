// Package dfg represents the dataflow graphs (DFGs) that the scheduler
// consumes: directed acyclic graphs whose vertices are kernels and whose
// edges are data/computational dependencies (paper §2.5.1, G = (V, E)).
//
// Graphs are built with a Builder and immutable afterwards, which lets the
// simulator and the policies share one graph across goroutine-parallel
// experiment sweeps without copying. Adjacency is stored in compressed
// sparse row (CSR) form — one flat edge array plus per-vertex offsets for
// successors and one for predecessors — so graphs with hundreds of
// thousands of kernels stay cache-contiguous and cost two allocations per
// direction instead of one per vertex.
package dfg

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/heaps"
)

// SizeError reports a graph too large for the 32-bit kernel-ID space. The
// CSR offsets and every per-kernel record in the simulator are int32-indexed,
// so builders reject anything beyond math.MaxInt32 kernels or edges instead
// of silently wrapping.
type SizeError struct {
	Kernels int
	Edges   int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("dfg: graph with %d kernels / %d edges exceeds the int32 ID space (max %d)",
		e.Kernels, e.Edges, math.MaxInt32)
}

// checkSize returns a *SizeError iff a graph with the given kernel and edge
// counts would overflow int32 IDs or CSR offsets. Split out so the overflow
// guard is testable without materialising a 2^31-kernel graph.
func checkSize(kernels, edges int) error {
	if kernels > math.MaxInt32 || edges > math.MaxInt32 {
		return &SizeError{Kernels: kernels, Edges: edges}
	}
	return nil
}

// KernelID identifies a kernel within one Graph. IDs are dense from 0 in
// insertion order, which for the paper's workloads is also the stream
// ("first-come, first-serve") arrival order that dynamic policies see.
//
// The ID is 32 bits wide on purpose: per-kernel bookkeeping in the
// simulator (event records, ready queues, placement rows) stores KernelIDs
// by value, and halving the ID width is what keeps million-kernel runs
// inside a few hundred bytes per kernel. Builder.Build rejects graphs that
// would overflow the ID space with a *SizeError.
type KernelID int32

// Kernel is one schedulable unit of computation (paper Figure 2: an
// application decomposes into kernels; each kernel follows a dwarf's
// computation/communication pattern).
type Kernel struct {
	ID KernelID
	// Name is the canonical kernel name used to key the lookup table
	// (e.g. "matmul", "bfs").
	Name string
	// Dwarf is the Berkeley-dwarf class, informational only.
	Dwarf string
	// DataElems is the input problem size in elements; together with Name it
	// keys the execution-time lookup.
	DataElems int64
	// OutElems is the number of elements the kernel produces and must ship
	// to each successor on a different processor. The thesis does not model
	// output sizes separately from input sizes, so builders default this to
	// DataElems; it is exposed for extensions.
	OutElems int64
	// App optionally tags which application in the stream this kernel
	// belongs to, for reporting.
	App int
}

// Graph is an immutable DAG of kernels.
//
// Adjacency lives in two CSR halves: the successors of kernel id are
// succEdges[succOff[id]:succOff[id+1]] and its predecessors the analogous
// predEdges range. Both per-vertex ranges are sorted ascending by kernel
// ID, which makes every traversal order deterministic. Offsets are int32,
// which caps a single graph at 2^31-1 edges — far beyond the 100k-kernel
// workloads the generators produce.
type Graph struct {
	kernels   []Kernel
	succOff   []int32
	predOff   []int32
	succEdges []KernelID
	predEdges []KernelID
	// topo caches the deterministic topological order (ascending IDs among
	// simultaneously-ready vertices); it is computed once at Build and
	// shared read-only by AppendTopoOrder and CriticalPath.
	topo  []KernelID
	edges int
}

// NumKernels returns the number of vertices.
func (g *Graph) NumKernels() int { return len(g.kernels) }

// NumEdges returns the number of dependency edges.
func (g *Graph) NumEdges() int { return g.edges }

// Kernel returns the kernel with the given ID. It panics on out-of-range
// IDs, which only arise from programming errors.
func (g *Graph) Kernel(id KernelID) Kernel {
	if id < 0 || int(id) >= len(g.kernels) {
		badKernelID(id, len(g.kernels))
	}
	return g.kernels[id]
}

// badKernelID panics with the out-of-range diagnostic. Split from Kernel —
// which sits on the simulation's per-event hot path — so the accepting
// lookup carries no fmt call or interface boxing.
//
//apt:coldpath
func badKernelID(id KernelID, n int) {
	panic(fmt.Sprintf("dfg: kernel id %d out of range [0,%d)", id, n))
}

// Kernels returns all kernels in ID order; the slice is shared and must not
// be modified.
func (g *Graph) Kernels() []Kernel { return g.kernels }

// Succs returns the successors of id in ascending ID order; the slice
// aliases the graph's CSR storage, do not modify.
func (g *Graph) Succs(id KernelID) []KernelID {
	return g.succEdges[g.succOff[id]:g.succOff[id+1]]
}

// Preds returns the predecessors of id in ascending ID order; the slice
// aliases the graph's CSR storage, do not modify.
func (g *Graph) Preds(id KernelID) []KernelID {
	return g.predEdges[g.predOff[id]:g.predOff[id+1]]
}

// InDegree returns the number of dependencies of id.
func (g *Graph) InDegree(id KernelID) int { return int(g.predOff[id+1] - g.predOff[id]) }

// Entries returns all kernels with no predecessors, in ID order. The slice
// is fresh and exactly sized; allocation-sensitive callers should prefer
// AppendEntries with a reused buffer.
func (g *Graph) Entries() []KernelID {
	count := 0
	for id := range g.kernels {
		if g.InDegree(KernelID(id)) == 0 {
			count++
		}
	}
	return g.AppendEntries(make([]KernelID, 0, count))
}

// AppendEntries appends the entry kernels (no predecessors, ID order) to
// buf and returns the extended slice. Passing a reused buf[:0] makes the
// query allocation-free.
func (g *Graph) AppendEntries(buf []KernelID) []KernelID {
	for id := range g.kernels {
		if g.InDegree(KernelID(id)) == 0 {
			buf = append(buf, KernelID(id))
		}
	}
	return buf
}

// AppendTopoOrder appends a deterministic topological order to buf and
// returns the extended slice: among ready vertices, smaller IDs first
// (Kahn's algorithm with a min-heap frontier, computed once at Build). The
// graph is acyclic by construction, so the order covers every kernel. With
// a reused buffer the query is allocation-free.
func (g *Graph) AppendTopoOrder(buf []KernelID) []KernelID {
	return append(buf, g.topo...)
}

// kahnTopo computes the deterministic topological order of the CSR graph:
// Kahn's algorithm with a binary min-heap frontier, so among ready
// vertices the smallest ID is always emitted first in O(E log V) total.
// It returns fewer than n vertices iff the edge set contains a cycle.
func kahnTopo(n int, succOff []int32, succEdges []KernelID, predOff []int32) []KernelID {
	lessID := func(a, b KernelID) bool { return a < b }
	indeg := make([]int32, n)
	for id := 0; id < n; id++ {
		indeg[id] = predOff[id+1] - predOff[id]
	}
	// frontier is a binary min-heap of ready kernel IDs.
	frontier := make([]KernelID, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			frontier = append(frontier, KernelID(id))
			heaps.Up(frontier, len(frontier)-1, lessID)
		}
	}
	order := make([]KernelID, 0, n)
	for len(frontier) > 0 {
		u := frontier[0]
		last := len(frontier) - 1
		frontier[0] = frontier[last]
		frontier = frontier[:last]
		heaps.Down(frontier, 0, lessID)
		order = append(order, u)
		for _, v := range succEdges[succOff[u]:succOff[u+1]] {
			indeg[v]--
			if indeg[v] == 0 {
				frontier = append(frontier, v)
				heaps.Up(frontier, len(frontier)-1, lessID)
			}
		}
	}
	return order
}

// CriticalPath returns the longest path through the graph where each vertex
// costs weight(kernel) and edges are free, along with the path itself
// (entry to exit). It is a lower bound on makespan when weight is the
// fastest execution time of each kernel and transfers are ignored.
func (g *Graph) CriticalPath(weight func(Kernel) float64) (float64, []KernelID) {
	n := len(g.kernels)
	if n == 0 {
		return 0, nil
	}
	dist := make([]float64, n)
	next := make([]KernelID, n)
	for i := range next {
		next[i] = -1
	}
	// Walk in reverse topological order computing the longest tail.
	for i := n - 1; i >= 0; i-- {
		id := g.topo[i]
		w := weight(g.kernels[id])
		best := 0.0
		for _, s := range g.Succs(id) {
			if dist[s] > best {
				best = dist[s]
				next[id] = s
			}
		}
		dist[id] = w + best
	}
	bestStart := KernelID(0)
	for id := 1; id < n; id++ {
		if dist[id] > dist[bestStart] {
			bestStart = KernelID(id)
		}
	}
	var path []KernelID
	for id := bestStart; id != -1; id = next[id] {
		path = append(path, id)
	}
	return dist[bestStart], path
}

// Validate re-checks structural invariants (acyclic, consistent CSR
// adjacency). Builders guarantee these already; Validate exists for graphs
// decoded from external sources and for property tests.
func (g *Graph) Validate() error {
	n := len(g.kernels)
	for id, k := range g.kernels {
		if int(k.ID) != id {
			return fmt.Errorf("dfg: kernel at index %d has ID %d", id, k.ID)
		}
		if k.Name == "" {
			return fmt.Errorf("dfg: kernel %d has empty name", id)
		}
		if k.DataElems <= 0 {
			return fmt.Errorf("dfg: kernel %d has non-positive data size %d", id, k.DataElems)
		}
		if k.OutElems <= 0 {
			return fmt.Errorf("dfg: kernel %d has non-positive output size %d", id, k.OutElems)
		}
	}
	if len(g.succOff) != n+1 || len(g.predOff) != n+1 {
		return fmt.Errorf("dfg: CSR offsets sized %d/%d for %d kernels", len(g.succOff), len(g.predOff), n)
	}
	for u := 0; u < n; u++ {
		succs := g.Succs(KernelID(u))
		for i, v := range succs {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("dfg: edge %d->%d out of range", u, v)
			}
			if i > 0 && succs[i-1] >= v {
				return fmt.Errorf("dfg: successors of %d not sorted/unique at %d", u, v)
			}
			found := false
			for _, p := range g.Preds(v) {
				if int(p) == u {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("dfg: edge %d->%d missing reverse adjacency", u, v)
			}
		}
	}
	if len(kahnTopo(n, g.succOff, g.succEdges, g.predOff)) != n {
		return fmt.Errorf("dfg: graph contains a cycle")
	}
	return nil
}

// Builder accumulates kernels and edges and produces an immutable Graph.
// Edges are buffered as a flat list and deduplicated in one pass at Build,
// so building dense graphs costs no per-edge map entries.
type Builder struct {
	kernels []Kernel
	edges   []edgePair
	err     error
}

type edgePair struct{ from, to KernelID }

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return &Builder{} }

// AddKernel appends a kernel and returns its ID. If k.OutElems is zero it
// defaults to k.DataElems. The ID and Dwarf fields of the argument are
// overwritten (Dwarf only if empty, from the name via lut-style mapping is
// the caller's job; the builder leaves it as provided).
func (b *Builder) AddKernel(k Kernel) KernelID {
	if err := checkSize(len(b.kernels)+1, len(b.edges)); err != nil {
		b.fail(err)
		return KernelID(math.MaxInt32)
	}
	id := KernelID(len(b.kernels))
	k.ID = id
	if k.OutElems == 0 {
		k.OutElems = k.DataElems
	}
	if k.Name == "" {
		b.fail(fmt.Errorf("dfg: kernel %d has empty name", id))
	}
	if k.DataElems <= 0 {
		b.fail(fmt.Errorf("dfg: kernel %d (%s) has non-positive data size %d", id, k.Name, k.DataElems))
	}
	b.kernels = append(b.kernels, k)
	return id
}

// AddEdge records the dependency from -> to (to consumes from's output).
// Duplicate edges are ignored (deduplicated at Build); self edges and
// forward references to not-yet-added kernels are errors, as are edges
// that would create a cycle (detected at Build).
func (b *Builder) AddEdge(from, to KernelID) *Builder {
	n := KernelID(len(b.kernels))
	if from < 0 || from >= n || to < 0 || to >= n {
		b.fail(fmt.Errorf("dfg: edge %d->%d references unknown kernel (have %d)", from, to, n))
		return b
	}
	if from == to {
		b.fail(fmt.Errorf("dfg: self edge on kernel %d", from))
		return b
	}
	b.edges = append(b.edges, edgePair{from, to})
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build finalises the graph: edges are sorted and deduplicated, both CSR
// halves are laid out, and acyclicity is verified.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.kernels)
	if err := checkSize(n, len(b.edges)); err != nil {
		return nil, err
	}

	// Sort the edge buffer by (from, to) and squeeze out duplicates in
	// place. Sorting up front means both CSR halves come out with sorted
	// per-vertex ranges for free.
	edges := b.edges
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	dedup := edges[:0]
	for i, e := range edges {
		if i > 0 && e == edges[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}

	g := &Graph{
		kernels: b.kernels,
		succOff: make([]int32, n+1),
		predOff: make([]int32, n+1),
		edges:   len(dedup),
	}
	if len(dedup) > 0 {
		flat := make([]KernelID, 2*len(dedup))
		g.succEdges = flat[:len(dedup):len(dedup)]
		g.predEdges = flat[len(dedup):]
	}

	// Successor CSR: edges are (from, to)-sorted, so buckets fill in order.
	for _, e := range dedup {
		g.succOff[e.from+1]++
		g.predOff[e.to+1]++
	}
	for id := 0; id < n; id++ {
		g.succOff[id+1] += g.succOff[id]
		g.predOff[id+1] += g.predOff[id]
	}
	fill := make([]int32, n)
	for _, e := range dedup {
		g.succEdges[g.succOff[e.from]+fill[e.from]] = e.to
		fill[e.from]++
	}
	// Predecessor CSR: iterating in ascending (from, to) order appends each
	// bucket's predecessors in ascending ID order.
	clear(fill)
	for _, e := range dedup {
		g.predEdges[g.predOff[e.to]+fill[e.to]] = e.from
		fill[e.to]++
	}

	g.topo = kahnTopo(n, g.succOff, g.succEdges, g.predOff)
	if len(g.topo) != n {
		return nil, fmt.Errorf("dfg: graph contains a cycle")
	}
	return g, nil
}

// MustBuild is Build, panicking on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
