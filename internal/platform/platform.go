// Package platform models the hardware side of a heterogeneous system:
// processor kinds (CPU, GPU, FPGA, ...), concrete processor instances and
// the interconnect between them.
//
// The paper's evaluation system is one CPU, one GPU and one FPGA connected
// pairwise by PCI Express with a uniform transfer rate (4 GB/s for x8,
// 8 GB/s for x16). This package is deliberately more general: any number of
// processors of any kind, and an arbitrary per-pair link matrix, so that the
// scheduler and simulator can be exercised on systems beyond the paper's.
package platform

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind identifies a processor category. The lookup table of measured
// execution times is keyed by category, not by an exact hardware model,
// following the paper's generalisation ("the execution time for any given
// kernel belongs to the category of the platform").
type Kind string

// The three processor categories used throughout the thesis.
const (
	CPU  Kind = "CPU"
	GPU  Kind = "GPU"
	FPGA Kind = "FPGA"
)

// StandardKinds lists the categories present in the paper's system, in the
// column order of its lookup table.
func StandardKinds() []Kind { return []Kind{CPU, GPU, FPGA} }

// ProcID indexes a processor inside a System. IDs are dense, starting at 0,
// in the order processors were added. Like dfg.KernelID it is 32 bits wide
// so per-kernel records that carry a processor stay compact.
type ProcID int32

// Invalid is returned by lookups that found no processor.
const Invalid ProcID = -1

// Processor is one concrete device in the system.
type Processor struct {
	ID   ProcID
	Kind Kind
	// Name is a human-readable label, e.g. "GPU0" or "Tesla K20".
	Name string
}

// GBps expresses a link bandwidth in gigabytes per second (1e9 bytes/s).
type GBps float64

// BytesPerMs converts a bandwidth to bytes transferable per millisecond,
// the simulator's native time unit.
func (r GBps) BytesPerMs() float64 { return float64(r) * 1e9 / 1e3 }

// System is an immutable description of a heterogeneous machine: its
// processors and the bandwidth of every directed link between them.
// Build one with NewBuilder.
type System struct {
	procs []Processor
	// rate[i][j] is the bandwidth from processor i to processor j in GB/s.
	// rate[i][i] is meaningless (no self transfer) and kept at 0.
	rate [][]GBps
}

// NumProcs returns the number of processors in the system.
func (s *System) NumProcs() int { return len(s.procs) }

// Procs returns all processors in ID order. The slice is shared; callers
// must not modify it.
func (s *System) Procs() []Processor { return s.procs }

// Proc returns the processor with the given ID.
// It panics if the ID is out of range, which always indicates a programming
// error: IDs only ever originate from this System.
func (s *System) Proc(id ProcID) Processor {
	if id < 0 || int(id) >= len(s.procs) {
		panic(fmt.Sprintf("platform: processor id %d out of range [0,%d)", id, len(s.procs)))
	}
	return s.procs[id]
}

// KindOf returns the category of the processor with the given ID.
func (s *System) KindOf(id ProcID) Kind { return s.Proc(id).Kind }

// Rate returns the bandwidth of the directed link from -> to in GB/s.
// A zero return for distinct processors means the link is unusable.
func (s *System) Rate(from, to ProcID) GBps {
	if from == to {
		return 0
	}
	return s.rate[from][to]
}

// Kinds returns the distinct processor kinds present, sorted alphabetically.
func (s *System) Kinds() []Kind {
	seen := map[Kind]bool{}
	for _, p := range s.procs {
		seen[p.Kind] = true
	}
	kinds := make([]Kind, 0, len(seen))
	for k := range seen { //lint:ordered — collected then sorted just below
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// String renders a short one-line summary, e.g. "System(CPU0, GPU0, FPGA0)".
func (s *System) String() string {
	names := make([]string, len(s.procs))
	for i, p := range s.procs {
		names[i] = p.Name
	}
	return "System(" + strings.Join(names, ", ") + ")"
}

// RateError reports a link bandwidth that is negative or NaN. A NaN rate
// would price every transfer over the link as NaN, and the APT rule never
// picks a NaN price, so placement would change without an error. +Inf is a
// legal rate: transfers over the link are free.
type RateError struct {
	// From and To name the directed link; both are Invalid for the
	// uniform rate.
	From, To ProcID
	Rate     GBps
}

func (e *RateError) Error() string {
	nan := math.IsNaN(float64(e.Rate))
	switch {
	case e.From == Invalid && nan:
		return "platform: NaN uniform rate"
	case e.From == Invalid:
		return fmt.Sprintf("platform: negative uniform rate %v", e.Rate)
	case nan:
		return fmt.Sprintf("platform: NaN rate for link %d->%d", e.From, e.To)
	default:
		return fmt.Sprintf("platform: negative rate %v for link %d->%d", e.Rate, e.From, e.To)
	}
}

// Builder assembles a System. The zero value is not usable; call NewBuilder.
type Builder struct {
	procs   []Processor
	pairs   map[[2]ProcID]GBps
	uniform GBps
	err     error
}

// NewBuilder returns an empty system builder.
func NewBuilder() *Builder {
	return &Builder{pairs: make(map[[2]ProcID]GBps)}
}

// AddProcessor appends a processor of the given kind and returns its ID.
// If name is empty a default of the form "<KIND><index-within-kind>" is used.
func (b *Builder) AddProcessor(k Kind, name string) ProcID {
	if k == "" {
		b.fail(fmt.Errorf("platform: empty processor kind"))
		return Invalid
	}
	id := ProcID(len(b.procs))
	if name == "" {
		n := 0
		for _, p := range b.procs {
			if p.Kind == k {
				n++
			}
		}
		name = fmt.Sprintf("%s%d", k, n)
	}
	b.procs = append(b.procs, Processor{ID: id, Kind: k, Name: name})
	return id
}

// SetUniformRate declares that every directed link between distinct
// processors runs at the given bandwidth, matching the paper's setup
// ("we maintain the data transfer rates between all processors to be the
// same"). Per-pair overrides via SetRate take precedence.
func (b *Builder) SetUniformRate(r GBps) *Builder {
	if !(r >= 0) { // NaN fails every comparison
		b.fail(&RateError{From: Invalid, To: Invalid, Rate: r})
		return b
	}
	b.uniform = r
	return b
}

// SetRate overrides the bandwidth of the directed link from -> to.
// Use SetSymmetricRate for both directions at once.
func (b *Builder) SetRate(from, to ProcID, r GBps) *Builder {
	if !(r >= 0) { // NaN fails every comparison
		b.fail(&RateError{From: from, To: to, Rate: r})
		return b
	}
	if from == to {
		b.fail(fmt.Errorf("platform: self link %d->%d", from, to))
		return b
	}
	b.pairs[[2]ProcID{from, to}] = r
	return b
}

// SetSymmetricRate overrides the bandwidth of both directed links between
// a and b.
func (b *Builder) SetSymmetricRate(a, c ProcID, r GBps) *Builder {
	b.SetRate(a, c, r)
	b.SetRate(c, a, r)
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates the accumulated description and returns the System.
func (b *Builder) Build() (*System, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.procs) == 0 {
		return nil, fmt.Errorf("platform: system has no processors")
	}
	n := len(b.procs)
	// Validate links in sorted order: with several bad links, which one the
	// error names must not depend on map iteration order.
	links := make([][2]ProcID, 0, len(b.pairs))
	for pair := range b.pairs { //lint:ordered — collected then sorted just below
		links = append(links, pair)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	for _, pair := range links {
		for _, id := range pair {
			if id < 0 || int(id) >= n {
				return nil, fmt.Errorf("platform: link references unknown processor %d", id)
			}
		}
	}
	rate := make([][]GBps, n)
	for i := range rate {
		rate[i] = make([]GBps, n)
		for j := range rate[i] {
			if i == j {
				continue
			}
			r, ok := b.pairs[[2]ProcID{ProcID(i), ProcID(j)}]
			if !ok {
				r = b.uniform
			}
			rate[i][j] = r
		}
	}
	procs := make([]Processor, n)
	copy(procs, b.procs)
	return &System{procs: procs, rate: rate}, nil
}

// MustBuild is Build, panicking on error. Intended for tests and examples
// with statically known-good inputs.
func (b *Builder) MustBuild() *System {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}

// PaperSystem builds the thesis's evaluation platform: one CPU, one GPU and
// one FPGA with the given uniform PCIe bandwidth on every link
// (4 GB/s for PCIe 2.0 x8, 8 GB/s for x16).
func PaperSystem(rate GBps) *System {
	b := NewBuilder()
	b.AddProcessor(CPU, "")
	b.AddProcessor(GPU, "")
	b.AddProcessor(FPGA, "")
	b.SetUniformRate(rate)
	return b.MustBuild()
}
