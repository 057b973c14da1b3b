package dfg

import "testing"

// csrDiamond builds the 0 -> {1,2} -> 3 graph used across these tests.
func csrDiamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddKernel(Kernel{Name: "k", DataElems: 1})
	}
	b.AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 3).AddEdge(2, 3)
	return b.MustBuild()
}

func TestAppendEntries(t *testing.T) {
	g := csrDiamond(t)
	if got := g.Entries(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Entries = %v", got)
	}
	buf := make([]KernelID, 0, 4)
	if got := g.AppendEntries(buf); len(got) != 1 || got[0] != 0 {
		t.Fatalf("AppendEntries = %v", got)
	}
	// AppendEntries must reuse the supplied buffer, not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.AppendEntries(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendEntries allocated %.1f per call", allocs)
	}
}

func TestAppendTopoOrderZeroAlloc(t *testing.T) {
	g := csrDiamond(t)
	buf := make([]KernelID, 0, g.NumKernels())
	allocs := testing.AllocsPerRun(100, func() { buf = g.AppendTopoOrder(buf[:0]) })
	if allocs != 0 {
		t.Errorf("AppendTopoOrder allocated %.1f per call", allocs)
	}
	if len(buf) != 4 || buf[0] != 0 || buf[3] != 3 {
		t.Fatalf("AppendTopoOrder = %v", buf)
	}
}

func TestCSRAdjacencySorted(t *testing.T) {
	// Insert edges out of ID order; CSR must expose them sorted.
	b := NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddKernel(Kernel{Name: "k", DataElems: 1})
	}
	b.AddEdge(0, 4).AddEdge(0, 2).AddEdge(0, 3).AddEdge(1, 4).AddEdge(3, 4)
	g := b.MustBuild()
	succs := g.Succs(0)
	if len(succs) != 3 || succs[0] != 2 || succs[1] != 3 || succs[2] != 4 {
		t.Fatalf("Succs(0) = %v, want sorted [2 3 4]", succs)
	}
	preds := g.Preds(4)
	if len(preds) != 3 || preds[0] != 0 || preds[1] != 1 || preds[2] != 3 {
		t.Fatalf("Preds(4) = %v, want sorted [0 1 3]", preds)
	}
}

func TestBuildDedupsDuplicateEdges(t *testing.T) {
	b := NewBuilder()
	b.AddKernel(Kernel{Name: "a", DataElems: 1})
	b.AddKernel(Kernel{Name: "b", DataElems: 1})
	for i := 0; i < 5; i++ {
		b.AddEdge(0, 1)
	}
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d after duplicate AddEdge, want 1", g.NumEdges())
	}
	if got := g.Succs(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Succs(0) = %v", got)
	}
	if g.InDegree(1) != 1 {
		t.Fatalf("graph InDegree(1) = %d, want 1", g.InDegree(1))
	}
}
