package dfg

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds the 4-kernel graph 0 -> {1,2} -> 3.
func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddKernel(Kernel{Name: "k", DataElems: 10})
	}
	b.AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 3).AddEdge(2, 3)
	return b.MustBuild()
}

// hasEdge reports whether the dependency u -> v exists.
func hasEdge(g *Graph, u, v KernelID) bool { return slices.Contains(g.Succs(u), v) }

func TestBuilderBasics(t *testing.T) {
	g := diamond(t)
	if g.NumKernels() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d kernels %d edges, want 4/4", g.NumKernels(), g.NumEdges())
	}
	if !hasEdge(g, 0, 1) || hasEdge(g, 1, 0) || hasEdge(g, 0, 3) {
		t.Error("adjacency wrong")
	}
	if got := g.Entries(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Entries = %v, want [0]", got)
	}
	if g.InDegree(3) != 2 || len(g.Succs(0)) != 2 {
		t.Error("degree bookkeeping wrong")
	}
}

func TestOutElemsDefaults(t *testing.T) {
	b := NewBuilder()
	id := b.AddKernel(Kernel{Name: "k", DataElems: 42})
	id2 := b.AddKernel(Kernel{Name: "k", DataElems: 42, OutElems: 7})
	g := b.MustBuild()
	if g.Kernel(id).OutElems != 42 {
		t.Errorf("OutElems default = %d, want 42", g.Kernel(id).OutElems)
	}
	if g.Kernel(id2).OutElems != 7 {
		t.Errorf("explicit OutElems = %d, want 7", g.Kernel(id2).OutElems)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("empty name", func(t *testing.T) {
		b := NewBuilder()
		b.AddKernel(Kernel{DataElems: 1})
		if _, err := b.Build(); err == nil {
			t.Error("want error")
		}
	})
	t.Run("bad size", func(t *testing.T) {
		b := NewBuilder()
		b.AddKernel(Kernel{Name: "k", DataElems: 0})
		if _, err := b.Build(); err == nil {
			t.Error("want error")
		}
	})
	t.Run("self edge", func(t *testing.T) {
		b := NewBuilder()
		id := b.AddKernel(Kernel{Name: "k", DataElems: 1})
		b.AddEdge(id, id)
		if _, err := b.Build(); err == nil {
			t.Error("want error")
		}
	})
	t.Run("dangling edge", func(t *testing.T) {
		b := NewBuilder()
		id := b.AddKernel(Kernel{Name: "k", DataElems: 1})
		b.AddEdge(id, 99)
		if _, err := b.Build(); err == nil {
			t.Error("want error")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		b := NewBuilder()
		a := b.AddKernel(Kernel{Name: "k", DataElems: 1})
		c := b.AddKernel(Kernel{Name: "k", DataElems: 1})
		b.AddEdge(a, c).AddEdge(c, a)
		if _, err := b.Build(); err == nil {
			t.Error("want error for cycle")
		}
	})
}

func TestDuplicateEdgeIgnored(t *testing.T) {
	b := NewBuilder()
	a := b.AddKernel(Kernel{Name: "k", DataElems: 1})
	c := b.AddKernel(Kernel{Name: "k", DataElems: 1})
	b.AddEdge(a, c).AddEdge(a, c)
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 (duplicate collapsed)", g.NumEdges())
	}
}

func TestTopoOrder(t *testing.T) {
	g := diamond(t)
	order := g.AppendTopoOrder(nil)
	if len(order) != 4 {
		t.Fatalf("topo order len %d, want 4", len(order))
	}
	pos := map[KernelID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for u := 0; u < g.NumKernels(); u++ {
		for _, v := range g.Succs(KernelID(u)) {
			if pos[KernelID(u)] >= pos[v] {
				t.Errorf("edge %d->%d violates topo order %v", u, v, order)
			}
		}
	}
	// Deterministic: smaller IDs first among ready -> exactly 0,1,2,3.
	for i, id := range order {
		if int(id) != i {
			t.Errorf("order = %v, want [0 1 2 3]", order)
			break
		}
	}
}

func TestCriticalPath(t *testing.T) {
	b := NewBuilder()
	// 0(10) -> 1(1) -> 3(10); 0 -> 2(100) -> 3. Critical: 0,2,3 = 120.
	weights := []float64{10, 1, 100, 10}
	for range weights {
		b.AddKernel(Kernel{Name: "k", DataElems: 1})
	}
	b.AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 3).AddEdge(2, 3)
	g := b.MustBuild()
	w := func(k Kernel) float64 { return weights[k.ID] }
	length, path := g.CriticalPath(w)
	if length != 120 {
		t.Errorf("critical path length = %v, want 120", length)
	}
	want := []KernelID{0, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Errorf("path = %v, want %v", path, want)
			break
		}
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	g := NewBuilder().MustBuild()
	if l, p := g.CriticalPath(func(Kernel) float64 { return 1 }); l != 0 || p != nil {
		t.Errorf("empty graph critical path = %v,%v", l, p)
	}
}

func TestValidate(t *testing.T) {
	if err := diamond(t).Validate(); err != nil {
		t.Errorf("valid graph failed Validate: %v", err)
	}
}

func TestKernelPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Kernel(99) did not panic")
		}
	}()
	diamond(t).Kernel(99)
}

func TestDOTContainsNodesAndEdges(t *testing.T) {
	var buf bytes.Buffer
	if err := diamond(t).WriteDOT(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"k0", "k3", "k0 -> k1", "k2 -> k3"} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT output missing %q:\n%s", want, s)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumKernels() != g.NumKernels() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			back.NumKernels(), back.NumEdges(), g.NumKernels(), g.NumEdges())
	}
	for id := 0; id < g.NumKernels(); id++ {
		a, b := g.Kernel(KernelID(id)), back.Kernel(KernelID(id))
		if a != b {
			t.Errorf("kernel %d: %+v != %+v", id, a, b)
		}
		for _, s := range g.Succs(KernelID(id)) {
			if !hasEdge(back, KernelID(id), s) {
				t.Errorf("edge %d->%d lost in round trip", id, s)
			}
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("want decode error")
	}
	if _, err := ReadJSON(strings.NewReader(`{"kernels":[{"name":"k","data_elems":1}],"edges":[[0,5]]}`)); err == nil {
		t.Error("want dangling edge error")
	}
}

// randomDAG builds a random DAG where edges only go from lower to higher
// IDs, guaranteeing acyclicity.
func randomDAG(r *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddKernel(Kernel{Name: "k", DataElems: int64(r.Intn(1000) + 1)})
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				b.AddEdge(KernelID(u), KernelID(v))
			}
		}
	}
	return b.MustBuild()
}

// Property: topological order is a permutation respecting all edges, for
// random DAGs.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		p := float64(pRaw%100) / 100
		g := randomDAG(r, n, p)
		order := g.AppendTopoOrder(nil)
		if len(order) != n {
			return false
		}
		pos := make(map[KernelID]int, n)
		for i, id := range order {
			if _, dup := pos[id]; dup {
				return false
			}
			pos[id] = i
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Succs(KernelID(u)) {
				if pos[KernelID(u)] >= pos[v] {
					return false
				}
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: JSON round trip is lossless for random DAGs.
func TestJSONRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 1
		g := randomDAG(r, n, 0.3)
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			return false
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		if back.NumKernels() != g.NumKernels() || back.NumEdges() != g.NumEdges() {
			return false
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Succs(KernelID(u)) {
				if !hasEdge(back, KernelID(u), v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSizeGuard pins the int32 overflow guard: counts beyond the ID space
// are rejected with a typed *SizeError (white-box through checkSize, so the
// guard is provable without materialising a 2^31-kernel graph).
func TestSizeGuard(t *testing.T) {
	if err := checkSize(10, 20); err != nil {
		t.Fatalf("small graph rejected: %v", err)
	}
	if err := checkSize(math.MaxInt32, math.MaxInt32); err != nil {
		t.Fatalf("exactly-max graph rejected: %v", err)
	}
	for _, tc := range []struct{ kernels, edges int }{
		{math.MaxInt32 + 1, 0},
		{0, math.MaxInt32 + 1},
		{math.MaxInt32 + 1, math.MaxInt32 + 1},
	} {
		err := checkSize(tc.kernels, tc.edges)
		if err == nil {
			t.Fatalf("checkSize(%d, %d) accepted", tc.kernels, tc.edges)
		}
		var se *SizeError
		if !errors.As(err, &se) {
			t.Fatalf("checkSize(%d, %d) returned %T, want *SizeError", tc.kernels, tc.edges, err)
		}
		if se.Kernels != tc.kernels || se.Edges != tc.edges {
			t.Fatalf("SizeError carries %d/%d, want %d/%d", se.Kernels, se.Edges, tc.kernels, tc.edges)
		}
		if !strings.Contains(err.Error(), "int32") {
			t.Fatalf("error %q does not name the int32 ID space", err)
		}
	}
}
