package apps

import (
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/sim"
)

// paperTable1 is the membership matrix of the thesis's Table 1 (rows in
// paper order, columns per Dwarfs()).
var paperTable1 = map[string][]Dwarf{
	"Needleman Wunsch": {DynamicProgramming},
	"Matrix Inverse":   {DenseLinearAlgebra},
	"GEM":              {NBodyMethods},
	"Cholesky decomp.": {DenseLinearAlgebra, SparseLinearAlgebra},
	"BFS":              {GraphTraversal},
	"Mat.Mat. Multi.":  {DenseLinearAlgebra},
	"SRAD":             {StructuredGrids, UnstructuredGrids},
	"LavaMD":           {NBodyMethods, DenseLinearAlgebra},
	"HotSpot":          {StructuredGrids},
	"Backpropagation":  {DenseLinearAlgebra, UnstructuredGrids},
	"FFT":              {DenseLinearAlgebra, SpectralMethods},
}

func TestCatalogueMatchesTable1(t *testing.T) {
	apps := Catalogue()
	if len(apps) != 11 {
		t.Fatalf("catalogue has %d applications, want 11 (paper Table 1)", len(apps))
	}
	for _, a := range apps {
		want, ok := paperTable1[a.Name]
		if !ok {
			t.Errorf("unexpected application %q", a.Name)
			continue
		}
		if len(a.DwarfSet) != len(want) {
			t.Errorf("%s dwarfs = %v, want %v", a.Name, a.DwarfSet, want)
			continue
		}
		for _, d := range want {
			if !a.HasDwarf(d) {
				t.Errorf("%s missing dwarf %s", a.Name, d)
			}
		}
	}
}

func TestDwarfsColumns(t *testing.T) {
	if got := len(Dwarfs()); got != 8 {
		t.Fatalf("dwarf columns = %d, want 8 (paper Table 1)", got)
	}
}

func TestNames(t *testing.T) {
	names := Names()
	apps := Catalogue()
	if len(names) != 11 || len(apps) != len(names) {
		t.Fatalf("names = %d, catalogue = %d, want 11", len(names), len(apps))
	}
	for i, a := range apps {
		if a.Name != names[i] {
			t.Errorf("names[%d] = %q, catalogue row %q", i, names[i], a.Name)
		}
		b := dfg.NewBuilder()
		a.AppendTo(b, 0)
		if b.NumKernels() < 1 {
			t.Errorf("%s has no kernels", a.Name)
		}
	}
}

func TestApplicationGraphsValidAndSchedulable(t *testing.T) {
	sys := platform.PaperSystem(4)
	for _, a := range Catalogue() {
		b := dfg.NewBuilder()
		a.AppendTo(b, 0)
		g, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s graph invalid: %v", a.Name, err)
		}
		// Every kernel must be costable against the paper lookup table.
		if _, err := sim.PrepareCosts(g, sys, lut.Paper(), sim.CostConfig{}); err != nil {
			t.Errorf("%s not costable: %v", a.Name, err)
		}
	}
}

func TestSynthesisedFlagMatchesLUTCoverage(t *testing.T) {
	// Applications whose single kernel is measured directly must not be
	// marked synthesised; the four stand-ins must be.
	synth := map[string]bool{
		"LavaMD": true, "HotSpot": true, "Backpropagation": true, "FFT": true,
	}
	for _, a := range Catalogue() {
		if a.Synthesised != synth[a.Name] {
			t.Errorf("%s Synthesised = %v, want %v", a.Name, a.Synthesised, synth[a.Name])
		}
	}
}

func TestStream(t *testing.T) {
	g, err := Stream(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Independent applications: at least as many entry kernels as
	// applications with single-stage pipelines; more robustly, apps tags
	// must cover 0..11.
	seen := map[int]bool{}
	for _, k := range g.Kernels() {
		seen[k.App] = true
	}
	if len(seen) != 12 {
		t.Errorf("stream covers %d app tags, want 12", len(seen))
	}
	if _, err := Stream(0, 1); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestChainedStream(t *testing.T) {
	g, err := ChainedStream(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Chaining leaves exactly one weakly-connected start: the first
	// application's entries are the only kernels with in-degree zero.
	firstAppOnly := true
	for _, id := range g.Entries() {
		if g.Kernel(id).App != 0 {
			firstAppOnly = false
		}
	}
	if !firstAppOnly {
		t.Error("chained stream has entry kernels outside the first application")
	}
	if _, err := ChainedStream(-1, 1); err == nil {
		t.Error("negative stream accepted")
	}
}

func TestStreamDeterministic(t *testing.T) {
	a, _ := Stream(10, 9)
	b, _ := Stream(10, 9)
	if a.NumKernels() != b.NumKernels() || a.NumEdges() != b.NumEdges() {
		t.Fatal("stream not deterministic")
	}
}
