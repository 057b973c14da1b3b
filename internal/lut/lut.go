// Package lut provides the measured-execution-time lookup table that drives
// the simulator's cost model.
//
// The thesis (Table 14, Appendix A) collects real measured execution times
// for seven kernels at various data sizes on a CPU, a GPU and an FPGA, taken
// from Skalicky et al. (linear-algebra kernels) and Krommydas et al.
// (OpenCL dwarfs). The scheduler consults this table to estimate the
// execution time of a kernel on each processor category.
//
// The table is keyed by (kernel name, data size in elements, processor
// kind). Exact sizes hit the measured value; sizes between two measured
// points are piecewise-linearly interpolated; sizes outside the measured
// range clamp to the nearest endpoint. The paper only ever schedules the
// measured sizes, but the generators and examples in this repository are
// free to use intermediate ones.
package lut

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/platform"
)

// Entry is one measured row: execution times in milliseconds for a kernel
// at a specific data size on each processor kind.
type Entry struct {
	Kernel string
	// DataElems is the input size in elements (e.g. matrix rows*cols).
	DataElems int64
	// TimeMs maps processor kind to measured execution time in milliseconds.
	TimeMs map[platform.Kind]float64
}

// TimeError reports a measured time that is negative or NaN. A NaN time
// would price every execution of that kernel and size on that kind as NaN,
// and the APT rule never picks a NaN price, so placement would change
// without an error. +Inf is a legal time.
type TimeError struct {
	Kernel    string
	DataElems int64
	Kind      platform.Kind
	TimeMs    float64
}

func (e *TimeError) Error() string {
	what := fmt.Sprintf("negative time %v", e.TimeMs)
	if math.IsNaN(e.TimeMs) {
		what = "NaN time"
	}
	return fmt.Sprintf("lut: kernel %q size %d has %s on %s", e.Kernel, e.DataElems, what, e.Kind)
}

// Table is an immutable collection of measured entries with interpolating
// lookup. Build one with New or load the paper's table with Paper.
type Table struct {
	// byKernel[kernel] is sorted by DataElems ascending.
	byKernel map[string][]Entry
	kinds    []platform.Kind
}

// New builds a table from entries. Every entry must name a kernel, have a
// positive size, and supply a non-negative time for every kind that appears
// anywhere in the input (the table must be rectangular: all kernels cover
// the same set of kinds). A negative or NaN time fails with a *TimeError.
// Duplicate (kernel, size) pairs are rejected.
func New(entries []Entry) (*Table, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("lut: no entries")
	}
	kindSet := map[platform.Kind]bool{}
	for _, e := range entries {
		for k := range e.TimeMs { //lint:ordered — per-key set insert; writes are independent
			kindSet[k] = true
		}
	}
	kinds := make([]platform.Kind, 0, len(kindSet))
	for k := range kindSet { //lint:ordered — collected then sorted just below
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })

	byKernel := map[string][]Entry{}
	for _, e := range entries {
		if e.Kernel == "" {
			return nil, fmt.Errorf("lut: entry with empty kernel name")
		}
		if e.DataElems <= 0 {
			return nil, fmt.Errorf("lut: kernel %q has non-positive data size %d", e.Kernel, e.DataElems)
		}
		for _, k := range kinds {
			t, ok := e.TimeMs[k]
			if !ok {
				return nil, fmt.Errorf("lut: kernel %q size %d missing time for kind %s", e.Kernel, e.DataElems, k)
			}
			if !(t >= 0) { // NaN fails every comparison
				return nil, &TimeError{Kernel: e.Kernel, DataElems: e.DataElems, Kind: k, TimeMs: t}
			}
		}
		// Copy the map so the table does not alias caller memory.
		cp := Entry{Kernel: e.Kernel, DataElems: e.DataElems, TimeMs: make(map[platform.Kind]float64, len(e.TimeMs))}
		for k, v := range e.TimeMs { //lint:ordered — per-key map copy; writes are independent
			cp.TimeMs[k] = v
		}
		byKernel[e.Kernel] = append(byKernel[e.Kernel], cp)
	}
	// Validate kernels in sorted order: when several kernels have duplicate
	// sizes, which one the error names must not depend on map iteration
	// order (the message could otherwise differ across identical runs).
	kernelNames := make([]string, 0, len(byKernel))
	for kernel := range byKernel { //lint:ordered — collected then sorted just below
		kernelNames = append(kernelNames, kernel)
	}
	sort.Strings(kernelNames)
	for _, kernel := range kernelNames {
		rows := byKernel[kernel]
		sort.Slice(rows, func(i, j int) bool { return rows[i].DataElems < rows[j].DataElems })
		for i := 1; i < len(rows); i++ {
			if rows[i].DataElems == rows[i-1].DataElems {
				return nil, fmt.Errorf("lut: duplicate entry for kernel %q size %d", kernel, rows[i].DataElems)
			}
		}
		byKernel[kernel] = rows
	}
	return &Table{byKernel: byKernel, kinds: kinds}, nil
}

// MustNew is New, panicking on error.
func MustNew(entries []Entry) *Table {
	t, err := New(entries)
	if err != nil {
		panic(err)
	}
	return t
}

// Kinds returns the processor kinds the table covers, sorted.
func (t *Table) Kinds() []platform.Kind { return t.kinds }

// Kernels returns the kernel names present, sorted.
func (t *Table) Kernels() []string {
	names := make([]string, 0, len(t.byKernel))
	for k := range t.byKernel { //lint:ordered — collected then sorted just below
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Sizes returns the measured data sizes for a kernel, ascending, or nil if
// the kernel is unknown.
func (t *Table) Sizes(kernel string) []int64 {
	rows := t.byKernel[kernel]
	if rows == nil {
		return nil
	}
	sizes := make([]int64, len(rows))
	for i, r := range rows {
		sizes[i] = r.DataElems
	}
	return sizes
}

// Exec returns the estimated execution time in milliseconds of the kernel
// at the given data size on the given processor kind.
//
// Exact measured sizes return the measured value. Sizes strictly between
// two measured points interpolate linearly. Sizes below the smallest or
// above the largest measured size clamp to the boundary measurement, a
// deliberately conservative choice that keeps estimates inside the measured
// envelope.
func (t *Table) Exec(kernel string, elems int64, kind platform.Kind) (float64, error) {
	rows := t.byKernel[kernel]
	if rows == nil {
		return 0, fmt.Errorf("lut: unknown kernel %q", kernel)
	}
	if elems <= 0 {
		return 0, fmt.Errorf("lut: non-positive data size %d for kernel %q", elems, kernel)
	}
	if _, ok := rows[0].TimeMs[kind]; !ok {
		return 0, fmt.Errorf("lut: kernel %q has no time for kind %s", kernel, kind)
	}
	// Binary search for the first row with DataElems >= elems.
	i := sort.Search(len(rows), func(i int) bool { return rows[i].DataElems >= elems })
	switch {
	case i == len(rows):
		return rows[len(rows)-1].TimeMs[kind], nil // clamp above
	case rows[i].DataElems == elems:
		return rows[i].TimeMs[kind], nil // exact
	case i == 0:
		return rows[0].TimeMs[kind], nil // clamp below
	default:
		lo, hi := rows[i-1], rows[i]
		frac := float64(elems-lo.DataElems) / float64(hi.DataElems-lo.DataElems)
		a, b := lo.TimeMs[kind], hi.TimeMs[kind]
		return a + frac*(b-a), nil
	}
}

// Entries returns every row of the table, sorted by kernel then size.
// The returned entries are copies.
func (t *Table) Entries() []Entry {
	var out []Entry
	for _, kernel := range t.Kernels() {
		for _, row := range t.byKernel[kernel] {
			cp := Entry{Kernel: row.Kernel, DataElems: row.DataElems, TimeMs: map[platform.Kind]float64{}}
			for k, v := range row.TimeMs { //lint:ordered — per-key map copy; writes are independent
				cp.TimeMs[k] = v
			}
			out = append(out, cp)
		}
	}
	return out
}
