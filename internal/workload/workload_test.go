package workload

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dfg"
	"repro/internal/lut"
)

func TestPaperCatalog(t *testing.T) {
	c := PaperCatalog()
	names := c.names
	if len(names) != 7 {
		t.Fatalf("catalog has %d kernels, want 7: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
	if got := len(c.sizes[lut.MatMul]); got != 7 {
		t.Errorf("matmul sizes = %d, want 7", got)
	}
	if got := len(c.sizes[lut.NW]); got != 1 {
		t.Errorf("nw sizes = %d, want 1", got)
	}
}

func TestNewCatalogErrors(t *testing.T) {
	if _, err := NewCatalog(nil); err == nil {
		t.Error("empty catalog: want error")
	}
	if _, err := NewCatalog(map[string][]int64{"k": {}}); err == nil {
		t.Error("kernel without sizes: want error")
	}
	if _, err := NewCatalog(map[string][]int64{"k": {0}}); err == nil {
		t.Error("non-positive size: want error")
	}
}

// Validate checks that every spec names a catalog kernel with an admissible
// size: the oracle RandomSeries' draws must pass.
func (c *Catalog) Validate(series []KernelSpec) error {
	for i, s := range series {
		sizes, ok := c.sizes[s.Name]
		if !ok {
			return fmt.Errorf("workload: spec %d names unknown kernel %q", i, s.Name)
		}
		found := false
		for _, sz := range sizes {
			if sz == s.DataElems {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("workload: spec %d size %d not admissible for kernel %q", i, s.DataElems, s.Name)
		}
	}
	return nil
}

func TestRandomSeriesDeterministic(t *testing.T) {
	c := PaperCatalog()
	a := c.RandomSeries(rand.New(rand.NewSource(7)), 50)
	b := c.RandomSeries(rand.New(rand.NewSource(7)), 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("series diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if err := c.Validate(a); err != nil {
		t.Errorf("generated series invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	c := PaperCatalog()
	if err := c.Validate([]KernelSpec{{Name: "nope", DataElems: 1}}); err == nil {
		t.Error("unknown kernel accepted")
	}
	if err := c.Validate([]KernelSpec{{Name: lut.NW, DataElems: 12345}}); err == nil {
		t.Error("inadmissible size accepted")
	}
}

func TestBuildType1Shape(t *testing.T) {
	c := PaperCatalog()
	series := c.RandomSeries(rand.New(rand.NewSource(1)), 9)
	g, err := BuildType1(series)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumKernels() != 9 {
		t.Fatalf("kernels = %d, want 9", g.NumKernels())
	}
	// n-1 parallel kernels, each feeding the last one.
	if got := g.Entries(); len(got) != 8 {
		t.Errorf("entries = %v, want the 8 parallel kernels", got)
	}
	last := dfg.KernelID(8)
	if g.InDegree(last) != 8 {
		t.Errorf("terminal in-degree = %d, want 8", g.InDegree(last))
	}
	if g.NumEdges() != 8 {
		t.Errorf("edges = %d, want 8", g.NumEdges())
	}
}

func TestBuildType1Degenerate(t *testing.T) {
	if _, err := BuildType1(nil); err == nil {
		t.Error("empty series accepted")
	}
	g, err := BuildType1([]KernelSpec{{Name: lut.NW, DataElems: 16777216}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumKernels() != 1 || g.NumEdges() != 0 {
		t.Error("single-kernel Type-1 wrong shape")
	}
}

func TestBuildType2Shape(t *testing.T) {
	c := PaperCatalog()
	series := c.RandomSeries(rand.New(rand.NewSource(2)), 46)
	g, err := BuildType2(series, Type2Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumKernels() != 46 {
		t.Fatalf("kernels = %d, want 46", g.NumKernels())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Type-2 must actually contain dependencies.
	if g.NumEdges() == 0 {
		t.Error("Type-2 graph has no edges")
	}
	// There must be kernels with in-degree >= 2 (diamond bottoms).
	foundJoin := false
	for id := 0; id < g.NumKernels(); id++ {
		if g.InDegree(dfg.KernelID(id)) >= 2 {
			foundJoin = true
			break
		}
	}
	if !foundJoin {
		t.Error("Type-2 graph has no join (diamond bottom)")
	}
}

func TestBuildType2TooSmall(t *testing.T) {
	c := PaperCatalog()
	series := c.RandomSeries(rand.New(rand.NewSource(3)), 5)
	if _, err := BuildType2(series, Type2Config{}); err == nil {
		t.Error("undersized series accepted")
	}
}

// TestBuildType2MinimumExact pins the smallest series BuildType2 accepts
// with the default configuration: every one of the three blocks needs a
// top, at least one middle and a bottom.
func TestBuildType2MinimumExact(t *testing.T) {
	const min = 9
	cfg := DefaultType2Config()
	c := PaperCatalog()
	series := c.RandomSeries(rand.New(rand.NewSource(4)), min)
	g, err := BuildType2(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumKernels() != min {
		t.Errorf("kernels = %d, want %d", g.NumKernels(), min)
	}
	if _, err := BuildType2(series[:min-1], cfg); err == nil {
		t.Errorf("BuildType2 accepted %d kernels, want at least %d", min-1, min)
	}
}

func TestBuildType2NoBlockLink(t *testing.T) {
	c := PaperCatalog()
	series := c.RandomSeries(rand.New(rand.NewSource(5)), 30)
	cfg := DefaultType2Config()
	linked, err := BuildType2(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LinkBlocks = false
	unlinked, err := BuildType2(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if linked.NumEdges() != unlinked.NumEdges()+2 {
		t.Errorf("linking 3 blocks should add exactly 2 edges: %d vs %d",
			linked.NumEdges(), unlinked.NumEdges())
	}
}

func TestBuildDispatch(t *testing.T) {
	c := PaperCatalog()
	series := c.RandomSeries(rand.New(rand.NewSource(6)), 20)
	if _, err := Build(Type1, series); err != nil {
		t.Errorf("Build(Type1): %v", err)
	}
	if _, err := Build(Type2, series); err != nil {
		t.Errorf("Build(Type2): %v", err)
	}
	if _, err := Build(GraphType(99), series); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestGraphTypeString(t *testing.T) {
	if Type1.String() != "DFG Type-1" || Type2.String() != "DFG Type-2" {
		t.Errorf("String() = %q/%q", Type1, Type2)
	}
}

func TestSuiteMatchesPaperCounts(t *testing.T) {
	for _, typ := range []GraphType{Type1, Type2} {
		graphs := MustSuite(typ, DefaultSuiteSeed)
		if len(graphs) != 10 {
			t.Fatalf("%v suite has %d graphs, want 10", typ, len(graphs))
		}
		for i, g := range graphs {
			if g.NumKernels() != ExperimentKernelCounts[i] {
				t.Errorf("%v graph %d has %d kernels, want %d",
					typ, i+1, g.NumKernels(), ExperimentKernelCounts[i])
			}
			if err := g.Validate(); err != nil {
				t.Errorf("%v graph %d invalid: %v", typ, i+1, err)
			}
		}
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a := MustSuite(Type2, 42)
	b := MustSuite(Type2, 42)
	for i := range a {
		if a[i].NumKernels() != b[i].NumKernels() || a[i].NumEdges() != b[i].NumEdges() {
			t.Fatalf("suite not deterministic at graph %d", i)
		}
		for id := 0; id < a[i].NumKernels(); id++ {
			ka, kb := a[i].Kernel(dfg.KernelID(id)), b[i].Kernel(dfg.KernelID(id))
			if ka != kb {
				t.Fatalf("graph %d kernel %d differs: %+v vs %+v", i, id, ka, kb)
			}
		}
	}
}

// Property: both generators produce valid DAGs with exactly the requested
// kernel count for any admissible series length and seed.
func TestGeneratorsValidProperty(t *testing.T) {
	c := PaperCatalog()
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%150) + 9 // BuildType2's minimum with three blocks
		series := c.RandomSeries(rand.New(rand.NewSource(seed)), n)
		g1, err := BuildType1(series)
		if err != nil || g1.NumKernels() != n || g1.Validate() != nil {
			return false
		}
		g2, err := BuildType2(series, Type2Config{})
		if err != nil || g2.NumKernels() != n || g2.Validate() != nil {
			return false
		}
		// Type-1: n-1 parallel kernels, each feeding the last one.
		if g1.NumEdges() != n-1 || g1.InDegree(dfg.KernelID(n-1)) != n-1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
