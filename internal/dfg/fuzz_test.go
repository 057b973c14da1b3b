package dfg

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSON asserts ReadJSON never panics and everything it accepts is
// a valid graph that survives a round trip.
func FuzzReadJSON(f *testing.F) {
	var seed bytes.Buffer
	b := NewBuilder()
	k0 := b.AddKernel(Kernel{Name: "a", DataElems: 5})
	k1 := b.AddKernel(Kernel{Name: "b", DataElems: 7})
	b.AddEdge(k0, k1)
	if err := b.MustBuild().WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{"kernels":[],"edges":[]}`)
	f.Add(`{"kernels":[{"name":"k","data_elems":1}],"edges":[[0,0]]}`)
	f.Add(`{"kernels":[{"name":"k","data_elems":1}],"edges":[[0,9]]}`)
	f.Add(`not json at all`)
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := g.WriteJSON(&out); err != nil {
			t.Fatalf("accepted graph failed to serialise: %v", err)
		}
		back, err := ReadJSON(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.NumKernels() != g.NumKernels() || back.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed shape")
		}
	})
}

// --- Seed reference implementations -----------------------------------------
//
// The CSR refactor replaced per-vertex adjacency slices and the O(n²)
// ordered-insert Kahn frontier with flat edge arrays and a heap frontier.
// These reference functions reimplement the seed algorithms verbatim over
// the public API; the fuzzers below assert the CSR graph agrees with them
// on arbitrary DAGs.

// refTopoOrder is the seed topological order: Kahn with a sorted-slice
// frontier, ordered inserts keeping smaller IDs first.
func refTopoOrder(g *Graph) []KernelID {
	n := g.NumKernels()
	indeg := make([]int, n)
	for id := 0; id < n; id++ {
		indeg[id] = g.InDegree(KernelID(id))
	}
	var frontier []KernelID
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			frontier = append(frontier, KernelID(id))
		}
	}
	order := make([]KernelID, 0, n)
	for len(frontier) > 0 {
		u := frontier[0]
		frontier = frontier[1:]
		order = append(order, u)
		for _, v := range g.Succs(u) {
			indeg[v]--
			if indeg[v] == 0 {
				i := 0
				for i < len(frontier) && frontier[i] < v {
					i++
				}
				frontier = append(frontier, 0)
				copy(frontier[i+1:], frontier[i:])
				frontier[i] = v
			}
		}
	}
	return order
}

// refCriticalPath is the seed CriticalPath: longest vertex-weighted path
// walking the reference topological order in reverse.
func refCriticalPath(g *Graph, weight func(Kernel) float64) (float64, []KernelID) {
	n := g.NumKernels()
	if n == 0 {
		return 0, nil
	}
	dist := make([]float64, n)
	next := make([]KernelID, n)
	for i := range next {
		next[i] = -1
	}
	order := refTopoOrder(g)
	for i := n - 1; i >= 0; i-- {
		id := order[i]
		w := weight(g.Kernel(id))
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

// fuzzGraph decodes an arbitrary byte string into a DAG: the first byte
// picks the vertex count (2..65), every following byte pair (a, b) an edge
// between distinct vertices directed low ID -> high ID — always acyclic,
// frequently duplicated, exercising the Build-time dedup pass.
func fuzzGraph(data []byte) *Graph {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0])%64 + 2
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddKernel(Kernel{Name: "k", DataElems: int64(i + 1)})
	}
	for i := 1; i+1 < len(data); i += 2 {
		u := KernelID(int(data[i]) % n)
		v := KernelID(int(data[i+1]) % n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		b.AddEdge(u, v)
	}
	return b.MustBuild()
}

// FuzzGraphAlgos asserts the CSR-backed AppendTopoOrder and CriticalPath
// agree with the seed implementations on arbitrary DAGs.
func FuzzGraphAlgos(f *testing.F) {
	f.Add([]byte{5})
	f.Add([]byte{8, 0, 1, 1, 2, 0, 2, 0, 2, 3, 7})
	f.Add([]byte{64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		if g == nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph fails validation: %v", err)
		}

		want := refTopoOrder(g)
		got := g.AppendTopoOrder(nil)
		if len(got) != len(want) {
			t.Fatalf("topo length %d != %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("topo[%d] = %d, want %d", i, got[i], want[i])
			}
		}

		weight := func(k Kernel) float64 { return float64(k.DataElems) }
		wantDist, wantPath := refCriticalPath(g, weight)
		gotDist, gotPath := g.CriticalPath(weight)
		if gotDist != wantDist {
			t.Fatalf("critical path %v != %v", gotDist, wantDist)
		}
		if len(gotPath) != len(wantPath) {
			t.Fatalf("critical path length %d != %d", len(gotPath), len(wantPath))
		}
		for i := range wantPath {
			if gotPath[i] != wantPath[i] {
				t.Fatalf("critical path[%d] = %d != %d", i, gotPath[i], wantPath[i])
			}
		}

		// Edge-count consistency with the CSR successor half.
		edges := 0
		for u := 0; u < g.NumKernels(); u++ {
			edges += len(g.Succs(KernelID(u)))
		}
		if edges != g.NumEdges() {
			t.Fatalf("NumEdges %d != summed out-degrees %d", g.NumEdges(), edges)
		}
	})
}
