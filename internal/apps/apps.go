// Package apps models the application layer of the thesis (Ch. 2, Figure
// 2 and Table 1): an application decomposes into kernels, each kernel
// follows the computation/communication pattern of one Berkeley dwarf, and
// an application may span several dwarfs.
//
// The catalogue reproduces the paper's Table 1 — eleven applications
// against eight dwarf columns — which experiments.Table1 renders.
package apps

// Dwarf names the Berkeley-dwarf columns of the paper's Table 1.
type Dwarf string

// The eight dwarf columns of Table 1 (of Asanović et al.'s thirteen).
const (
	DenseLinearAlgebra  Dwarf = "Dense Linear Algebra"
	SparseLinearAlgebra Dwarf = "Sparse Linear Algebra"
	SpectralMethods     Dwarf = "Spectral Methods"
	NBodyMethods        Dwarf = "N-Body Methods"
	StructuredGrids     Dwarf = "Structured Grids"
	UnstructuredGrids   Dwarf = "Unstructured Grids"
	GraphTraversal      Dwarf = "Graph Traversal"
	DynamicProgramming  Dwarf = "Dynamic Programming"
)

// Dwarfs lists the Table 1 columns in the paper's order.
func Dwarfs() []Dwarf {
	return []Dwarf{
		DenseLinearAlgebra, SparseLinearAlgebra, SpectralMethods, NBodyMethods,
		StructuredGrids, UnstructuredGrids, GraphTraversal, DynamicProgramming,
	}
}

// Application is one row of Table 1.
type Application struct {
	Name string
	// DwarfSet are the dwarf classes the application exhibits (Table 1).
	DwarfSet []Dwarf
}

// HasDwarf reports membership of a dwarf class.
func (a *Application) HasDwarf(d Dwarf) bool {
	for _, x := range a.DwarfSet {
		if x == d {
			return true
		}
	}
	return false
}

// catalogue reproduces the paper's Table 1 rows.
var catalogue = []Application{
	{Name: "Needleman Wunsch", DwarfSet: []Dwarf{DynamicProgramming}},
	{Name: "Matrix Inverse", DwarfSet: []Dwarf{DenseLinearAlgebra}},
	{Name: "GEM", DwarfSet: []Dwarf{NBodyMethods}},
	{Name: "Cholesky decomp.", DwarfSet: []Dwarf{DenseLinearAlgebra, SparseLinearAlgebra}},
	{Name: "BFS", DwarfSet: []Dwarf{GraphTraversal}},
	{Name: "Mat.Mat. Multi.", DwarfSet: []Dwarf{DenseLinearAlgebra}},
	{Name: "SRAD", DwarfSet: []Dwarf{StructuredGrids, UnstructuredGrids}},
	{Name: "LavaMD", DwarfSet: []Dwarf{NBodyMethods, DenseLinearAlgebra}},
	{Name: "HotSpot", DwarfSet: []Dwarf{StructuredGrids}},
	{Name: "Backpropagation", DwarfSet: []Dwarf{DenseLinearAlgebra, UnstructuredGrids}},
	{Name: "FFT", DwarfSet: []Dwarf{DenseLinearAlgebra, SpectralMethods}},
}

// Catalogue returns the Table 1 applications in the paper's row order.
// The returned slice is a copy; the applications themselves are immutable.
func Catalogue() []Application {
	out := make([]Application, len(catalogue))
	copy(out, catalogue)
	return out
}
