// Package workload generates every input the simulator is evaluated on.
//
// The thesis's families: series of kernels drawn from a catalog of seven
// real kernels (Table 5), arranged into DFG Type-1 (a wide parallel level
// plus one terminal kernel) or DFG Type-2 (independent kernels, chains
// and three diamond-shaped "kernel graph blocks").
//
// The repository's extensions beyond the thesis:
//
//   - Arrival shapes for open-system streaming: Poisson, periodic,
//     bursty (Markov-modulated on/off), diurnal (sinusoidal rate) and
//     trace replay, all pacing when each kernel becomes visible to the
//     scheduler (sim.Options.ArrivalTimes).
//   - Kernel streams: long multi-workload horizons sharded into windows
//     for apt.RunStream.
//   - Scale generators: BuildScaleLayered (bounded fan-in layered random
//     DAGs, edges linear in kernels) and BuildForkJoin meshes up to 100k
//     kernels, priced from the measured catalog so the cost model never
//     extrapolates.
//
// All generation is deterministic given a seed, so every experiment in
// this repository is exactly reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dfg"
	"repro/internal/lut"
)

// KernelSpec is one element of an input series: a kernel name plus its data
// size. Series are what the thesis's generator software accepts ("a series
// of kernels and each kernel has its own data size").
type KernelSpec struct {
	Name      string
	DataElems int64
}

// Catalog lists the kernels a generator may draw and the data sizes that
// are admissible for each (the measured sizes of the lookup table, so the
// simulator's cost model never needs to extrapolate).
type Catalog struct {
	names []string
	sizes map[string][]int64
}

// NewCatalog builds a catalog from explicit kernel -> sizes data.
func NewCatalog(sizes map[string][]int64) (*Catalog, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("workload: empty catalog")
	}
	// Collect and sort the names first, then validate in that order: with
	// several invalid entries the reported error must not depend on map
	// iteration order.
	names := make([]string, 0, len(sizes))
	for name := range sizes { //lint:ordered — collected then sorted just below
		names = append(names, name)
	}
	sortStrings(names)
	c := &Catalog{names: names, sizes: map[string][]int64{}}
	for _, name := range names {
		ss := sizes[name]
		if len(ss) == 0 {
			return nil, fmt.Errorf("workload: kernel %q has no sizes", name)
		}
		for _, s := range ss {
			if s <= 0 {
				return nil, fmt.Errorf("workload: kernel %q has non-positive size %d", name, s)
			}
		}
		c.sizes[name] = append([]int64(nil), ss...)
	}
	return c, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// PaperCatalog returns the catalog implied by the thesis: every kernel of
// its lookup table with exactly the measured data sizes.
func PaperCatalog() *Catalog {
	t := lut.Paper()
	sizes := map[string][]int64{}
	for _, k := range t.Kernels() {
		sizes[k] = t.Sizes(k)
	}
	c, err := NewCatalog(sizes)
	if err != nil {
		panic(err) // lut.Paper is statically valid
	}
	return c
}

// RandomSpec draws one kernel uniformly at random and one of its admissible
// sizes uniformly at random.
func (c *Catalog) RandomSpec(r *rand.Rand) KernelSpec {
	name := c.names[r.Intn(len(c.names))]
	ss := c.sizes[name]
	return KernelSpec{Name: name, DataElems: ss[r.Intn(len(ss))]}
}

// RandomSeries draws n independent random specs.
func (c *Catalog) RandomSeries(r *rand.Rand, n int) []KernelSpec {
	out := make([]KernelSpec, n)
	for i := range out {
		out[i] = c.RandomSpec(r)
	}
	return out
}

// addSpec appends a series element to a graph builder, filling in the dwarf.
func addSpec(b *dfg.Builder, s KernelSpec, app int) dfg.KernelID {
	return b.AddKernel(dfg.Kernel{
		Name:      s.Name,
		Dwarf:     lut.Dwarf(s.Name),
		DataElems: s.DataElems,
		App:       app,
	})
}
