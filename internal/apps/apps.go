// Package apps models the application layer of the thesis (Ch. 2, Figure
// 2 and Table 1): an application decomposes into kernels, each kernel
// follows the computation/communication pattern of one Berkeley dwarf, and
// an application may span several dwarfs.
//
// The catalogue reproduces the paper's Table 1 — eleven applications
// against eight dwarf columns — and gives each application a concrete
// kernel-level DFG built from the measured kernel set, so streams of whole
// applications (rather than loose kernels) can be generated and scheduled.
// For the four applications whose kernels are not in the thesis's lookup
// table (LavaMD, HotSpot, Backpropagation, FFT), the DFG is synthesised
// from measured kernels of the same dwarfs, preserving the dwarf mix of
// Table 1; the substitution is noted here.
package apps

import (
	"fmt"
	"math/rand"

	"repro/internal/dfg"
	"repro/internal/lut"
)

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

// stage is one level of an application's kernel pipeline: kernels within a
// stage are independent; every kernel of stage i feeds every kernel of
// stage i+1.
type stage []workUnit

type workUnit struct {
	kernel string
	elems  int64
}

// Application is one row of Table 1 with a concrete kernel decomposition.
type Application struct {
	Name string
	// DwarfSet are the dwarf classes the application exhibits (Table 1).
	DwarfSet []Dwarf
	// pipeline is the kernel decomposition (Figure 2): stages of
	// independent kernels with stage-to-stage dependencies.
	pipeline []stage
	// Synthesised marks applications whose own kernels are absent from the
	// thesis's lookup table and were rebuilt from same-dwarf kernels.
	Synthesised bool
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

// AppendTo adds the application's kernel DFG to a graph builder, tagging
// every kernel with the given application index, and returns the IDs of
// the final stage (the application's outputs).
func (a *Application) AppendTo(b *dfg.Builder, app int) []dfg.KernelID {
	var prev []dfg.KernelID
	for _, st := range a.pipeline {
		cur := make([]dfg.KernelID, 0, len(st))
		for _, u := range st {
			id := b.AddKernel(dfg.Kernel{
				Name:      u.kernel,
				Dwarf:     lut.Dwarf(u.kernel),
				DataElems: u.elems,
				App:       app,
			})
			for _, p := range prev {
				b.AddEdge(p, id)
			}
			cur = append(cur, id)
		}
		prev = cur
	}
	return prev
}

func u(kernel string, elems int64) workUnit { return workUnit{kernel: kernel, elems: elems} }

// catalogue reproduces the paper's Table 1 rows. Pipelines use the
// measured kernels; sizes pick mid-range entries of the lookup table.
var catalogue = []Application{
	{
		Name:     "Needleman Wunsch",
		DwarfSet: []Dwarf{DynamicProgramming},
		pipeline: []stage{{u(lut.NW, 16777216)}},
	},
	{
		Name:     "Matrix Inverse",
		DwarfSet: []Dwarf{DenseLinearAlgebra},
		pipeline: []stage{{u(lut.MatInv, 4000000)}},
	},
	{
		Name:     "GEM",
		DwarfSet: []Dwarf{NBodyMethods},
		pipeline: []stage{{u(lut.GEM, 2070376)}},
	},
	{
		Name:     "Cholesky decomp.",
		DwarfSet: []Dwarf{DenseLinearAlgebra, SparseLinearAlgebra},
		pipeline: []stage{{u(lut.CD, 16000000)}},
	},
	{
		Name:     "BFS",
		DwarfSet: []Dwarf{GraphTraversal},
		pipeline: []stage{{u(lut.BFS, 2034736)}},
	},
	{
		Name:     "Mat.Mat. Multi.",
		DwarfSet: []Dwarf{DenseLinearAlgebra},
		pipeline: []stage{{u(lut.MatMul, 4000000)}},
	},
	{
		Name:     "SRAD",
		DwarfSet: []Dwarf{StructuredGrids, UnstructuredGrids},
		pipeline: []stage{{u(lut.SRAD, 134217728)}},
	},
	{
		// LavaMD (particle interactions in boxed subdomains): N-body force
		// kernel between neighbour boxes followed by a dense reduction.
		Name:        "LavaMD",
		DwarfSet:    []Dwarf{NBodyMethods, DenseLinearAlgebra},
		Synthesised: true,
		pipeline: []stage{
			{u(lut.GEM, 2070376), u(lut.GEM, 2070376)},
			{u(lut.MatMul, 1000000)},
		},
	},
	{
		// HotSpot (thermal simulation): iterative structured-grid stencil,
		// modelled as two dependent grid sweeps.
		Name:        "HotSpot",
		DwarfSet:    []Dwarf{StructuredGrids},
		Synthesised: true,
		pipeline: []stage{
			{u(lut.SRAD, 134217728)},
			{u(lut.SRAD, 134217728)},
		},
	},
	{
		// Backpropagation: dense layer products forward, dense products
		// backward, weight update.
		Name:        "Backpropagation",
		DwarfSet:    []Dwarf{DenseLinearAlgebra, UnstructuredGrids},
		Synthesised: true,
		pipeline: []stage{
			{u(lut.MatMul, 4000000), u(lut.MatMul, 4000000)},
			{u(lut.MatMul, 4000000)},
			{u(lut.MatInv, 1000000)},
		},
	},
	{
		// FFT: spectral method; no FFT kernel was measured, so the
		// butterfly stages are represented by dense products over the
		// transform matrix (the thesis's own Table 1 classifies FFT under
		// Spectral Methods and Dense Linear Algebra).
		Name:        "FFT",
		DwarfSet:    []Dwarf{DenseLinearAlgebra, SpectralMethods},
		Synthesised: true,
		pipeline: []stage{
			{u(lut.MatMul, 1000000), u(lut.MatMul, 1000000)},
			{u(lut.MatMul, 1000000)},
		},
	},
}

// Catalogue returns the Table 1 applications in the paper's row order.
// The returned slice is a copy; the applications themselves are immutable.
func Catalogue() []Application {
	out := make([]Application, len(catalogue))
	copy(out, catalogue)
	return out
}

// Names returns all application names in row order.
func Names() []string {
	out := make([]string, len(catalogue))
	for i := range catalogue {
		out[i] = catalogue[i].Name
	}
	return out
}

// Stream builds a workload of n whole applications drawn uniformly at
// random (deterministic per seed), concatenated in stream order: each
// application's internal dependencies are preserved and applications are
// mutually independent, the Type-1-like regime of the thesis's streams.
func Stream(n int, seed int64) (*dfg.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("apps: stream size must be positive, got %d", n)
	}
	r := rand.New(rand.NewSource(seed))
	b := dfg.NewBuilder()
	for i := 0; i < n; i++ {
		app := catalogue[r.Intn(len(catalogue))]
		app.AppendTo(b, i)
	}
	return b.Build()
}

// ChainedStream is Stream with data dependencies between consecutive
// applications (each application's outputs feed the next one's entry
// kernels), the Type-2-like regime.
func ChainedStream(n int, seed int64) (*dfg.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("apps: stream size must be positive, got %d", n)
	}
	r := rand.New(rand.NewSource(seed))
	b := dfg.NewBuilder()
	var prevOut []dfg.KernelID
	for i := 0; i < n; i++ {
		app := catalogue[r.Intn(len(catalogue))]
		before := b.NumKernels()
		outs := app.AppendTo(b, i)
		if len(prevOut) > 0 {
			// The new application's entry kernels are those added in this
			// round that still have no predecessors.
			for id := before; id < b.NumKernels(); id++ {
				kid := dfg.KernelID(id)
				if b.InDegree(kid) == 0 {
					for _, p := range prevOut {
						b.AddEdge(p, kid)
					}
				}
			}
		}
		prevOut = outs
	}
	return b.Build()
}
