// Package apt is the public API of the APT scheduling library: a
// heterogeneous-system simulator plus seven scheduling policies, including
// the thesis's contribution — Alternative Processor within Threshold (APT),
// a dynamic heuristic that assigns a kernel to an alternative processor
// when its best processor is busy, provided the alternative's execution
// plus data-transfer time stays within a tunable threshold α·(best
// execution time).
//
// A minimal session:
//
//	machine := apt.PaperMachine(4) // CPU+GPU+FPGA, 4 GB/s PCIe
//	wl, _ := apt.GenerateWorkload(apt.Type1, 50, 7)
//	res, _ := apt.Run(wl, machine, apt.APT(4), nil)
//	fmt.Println(res.MakespanMs)
//
// The underlying engine, cost model and baseline policies live in the
// internal packages; this package wraps them behind a stable surface used
// by all examples and the command-line tools.
package apt

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ProcKind names a processor category.
type ProcKind = platform.Kind

// The processor categories of the paper's system. Custom machines may use
// additional kinds as long as their lookup table covers them.
const (
	CPU  = platform.CPU
	GPU  = platform.GPU
	FPGA = platform.FPGA
)

// Machine is a heterogeneous platform: processors plus interconnect.
type Machine struct {
	sys *platform.System
}

// PaperMachine returns the thesis's evaluation platform — one CPU, one GPU
// and one FPGA, fully connected at rateGBps gigabytes per second (the
// paper uses 4 for PCIe 2.0 x8 and 8 for x16).
func PaperMachine(rateGBps float64) *Machine {
	return &Machine{sys: platform.PaperSystem(platform.GBps(rateGBps))}
}

// NumProcs returns the number of processors.
func (m *Machine) NumProcs() int { return m.sys.NumProcs() }

// String summarises the machine.
func (m *Machine) String() string { return m.sys.String() }

// MachineBuilder assembles a custom Machine.
type MachineBuilder struct {
	b *platform.Builder
}

// NewMachine starts building a custom machine.
func NewMachine() *MachineBuilder {
	return &MachineBuilder{b: platform.NewBuilder()}
}

// AddProc appends a processor of the given kind and returns its index.
// Pass an empty name for an automatic one ("GPU0", ...).
func (mb *MachineBuilder) AddProc(kind ProcKind, name string) int {
	return int(mb.b.AddProcessor(kind, name))
}

// UniformRate sets every link's bandwidth in GB/s.
func (mb *MachineBuilder) UniformRate(gbps float64) *MachineBuilder {
	mb.b.SetUniformRate(platform.GBps(gbps))
	return mb
}

// LinkRate overrides the bandwidth of both directions between two
// processors.
func (mb *MachineBuilder) LinkRate(a, b int, gbps float64) *MachineBuilder {
	mb.b.SetSymmetricRate(platform.ProcID(a), platform.ProcID(b), platform.GBps(gbps))
	return mb
}

// Build validates and returns the machine.
func (mb *MachineBuilder) Build() (*Machine, error) {
	sys, err := mb.b.Build()
	if err != nil {
		return nil, err
	}
	return &Machine{sys: sys}, nil
}

// Workload is a dataflow graph of kernels to schedule.
type Workload struct {
	g *dfg.Graph
}

// NumKernels returns the kernel count.
func (w *Workload) NumKernels() int { return w.g.NumKernels() }

// NumDeps returns the dependency-edge count.
func (w *Workload) NumDeps() int { return w.g.NumEdges() }

// GraphType selects a generated workload family.
type GraphType = workload.GraphType

// The two workload families of the thesis.
const (
	Type1 = workload.Type1 // one wide parallel level + terminal kernel
	Type2 = workload.Type2 // chains, individual kernels and diamond blocks
)

// GenerateWorkload builds a random workload of n kernels drawn from the
// paper's kernel catalog (NW, BFS, SRAD, GEM, Cholesky, MatMul, MatInv at
// their measured sizes), arranged as the given graph type. The same seed
// always yields the same workload. Type2 requires n >= 9.
func GenerateWorkload(t GraphType, n int, seed int64) (*Workload, error) {
	if n <= 0 {
		return nil, fmt.Errorf("apt: workload size must be positive, got %d", n)
	}
	cat := workload.PaperCatalog()
	series := cat.RandomSeries(newRand(seed), n)
	g, err := workload.Build(t, series)
	if err != nil {
		return nil, err
	}
	return &Workload{g: g}, nil
}

// GenerateSuite builds the thesis's ten-experiment suite for a graph type:
// one workload per experiment of its Appendix B (46, 58, 50, 73, 69, 81,
// 125, 93, 132 and 157 kernels), experiment i drawn from seed +
// i·1 000 003. The evaluation's tables use seed 20170301.
func GenerateSuite(t GraphType, seed int64) ([]*Workload, error) {
	graphs, err := workload.Suite(t, seed)
	if err != nil {
		return nil, err
	}
	out := make([]*Workload, len(graphs))
	for i, g := range graphs {
		out[i] = &Workload{g: g}
	}
	return out, nil
}

// WorkloadBuilder assembles a custom workload kernel by kernel.
type WorkloadBuilder struct {
	b *dfg.Builder
}

// NewWorkload starts building a custom workload.
func NewWorkload() *WorkloadBuilder {
	return &WorkloadBuilder{b: dfg.NewBuilder()}
}

// AddKernel appends a kernel by lookup-table name ("matmul", "mi", "cd",
// "nw", "bfs", "srad", "gem" for the paper table) with its data size in
// elements, returning its index.
func (wb *WorkloadBuilder) AddKernel(name string, dataElems int64) int {
	return int(wb.b.AddKernel(dfg.Kernel{
		Name:      name,
		Dwarf:     lut.Dwarf(name),
		DataElems: dataElems,
	}))
}

// AddDep declares that kernel b consumes kernel a's output.
func (wb *WorkloadBuilder) AddDep(a, b int) *WorkloadBuilder {
	wb.b.AddEdge(dfg.KernelID(a), dfg.KernelID(b))
	return wb
}

// Build validates (acyclicity, names, sizes) and returns the workload.
func (wb *WorkloadBuilder) Build() (*Workload, error) {
	g, err := wb.b.Build()
	if err != nil {
		return nil, err
	}
	return &Workload{g: g}, nil
}

// Policy selects a scheduling heuristic.
type Policy struct {
	name  string
	alpha float64
	seed  int64
}

// APT returns the thesis's policy with flexibility factor alpha (>= 1;
// pass 0 for the paper's tuned default, α = 4).
func APT(alpha float64) Policy { return Policy{name: "APT", alpha: alpha} }

// APTR returns the APT-R future-work variant, which also weighs the best
// processor's remaining busy time before settling for an alternative.
func APTR(alpha float64) Policy { return Policy{name: "APT-R", alpha: alpha} }

// MET returns minimum execution time / best-only (Braun et al.); seed
// fixes its random kernel visiting order.
func MET(seed int64) Policy { return Policy{name: "MET", seed: seed} }

// SPN returns shortest process next (Khokhar et al.).
func SPN() Policy { return Policy{name: "SPN"} }

// SS returns serial scheduling by compute-time standard deviation
// (Liu & Yang).
func SS() Policy { return Policy{name: "SS"} }

// AG returns adaptive greedy (Wu et al.).
func AG() Policy { return Policy{name: "AG"} }

// HEFT returns heterogeneous earliest finish time (Topcuoglu et al.) as
// the thesis evaluates it.
func HEFT() Policy { return Policy{name: "HEFT"} }

// PEFT returns predict earliest finish time (Arabnejad & Barbosa) as the
// thesis evaluates it.
func PEFT() Policy { return Policy{name: "PEFT"} }

// OLB returns opportunistic load balancing (Braun et al.): next ready
// kernel to next available processor, ignoring execution times. The thesis
// discusses and dismisses it; it serves as a lower baseline.
func OLB() Policy { return Policy{name: "OLB"} }

// AR returns adaptive random (Wu et al.): each kernel goes immediately to
// a processor drawn with probability inversely proportional to its
// execution time there.
func AR(seed int64) Policy { return Policy{name: "AR", seed: seed} }

// Name returns the policy's display name.
func (p Policy) Name() string {
	if p.name == "" {
		return "APT"
	}
	return p.name
}

// ParsePolicy resolves a policy by name: "apt", "apt-r", "met", "spn",
// "ss", "ag", "heft", "peft" (case-insensitive). alpha applies to the APT
// family, seed to MET.
func ParsePolicy(name string, alpha float64, seed int64) (Policy, error) {
	switch strings.ToLower(name) {
	case "apt":
		return APT(alpha), nil
	case "apt-r", "aptr":
		return APTR(alpha), nil
	case "met":
		return MET(seed), nil
	case "spn":
		return SPN(), nil
	case "ss":
		return SS(), nil
	case "ag":
		return AG(), nil
	case "heft":
		return HEFT(), nil
	case "peft":
		return PEFT(), nil
	case "olb":
		return OLB(), nil
	case "ar":
		return AR(seed), nil
	default:
		return Policy{}, fmt.Errorf("apt: unknown policy %q (known: apt, apt-r, met, spn, ss, ag, heft, peft, olb, ar)", name)
	}
}

// PolicyNames lists the built-in policy names accepted by ParsePolicy.
func PolicyNames() []string {
	return []string{"apt", "apt-r", "met", "spn", "ss", "ag", "heft", "peft", "olb", "ar"}
}

func (p Policy) instantiate() (sim.Policy, error) {
	switch p.Name() {
	case "APT":
		return core.New(p.alpha), nil
	case "APT-R":
		return core.NewR(p.alpha), nil
	case "MET":
		return policy.NewMET(p.seed), nil
	case "SPN":
		return policy.NewSPN(), nil
	case "SS":
		return policy.NewSS(), nil
	case "AG":
		return policy.NewAG(), nil
	case "HEFT":
		return policy.NewHEFT(), nil
	case "PEFT":
		return policy.NewPEFT(), nil
	case "OLB":
		return policy.NewOLB(), nil
	case "AR":
		return policy.NewAR(p.seed), nil
	default:
		return nil, fmt.Errorf("apt: unknown policy %q", p.name)
	}
}
