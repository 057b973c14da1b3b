package apps

import "testing"

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
