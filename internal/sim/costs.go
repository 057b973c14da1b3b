// Package sim is the discrete-event simulator of the heterogeneous system:
// it executes a dataflow graph on a platform under a scheduling policy and
// reports the metrics the thesis evaluates (makespan, per-processor
// compute/transfer/idle time, and λ scheduling-delay statistics).
//
// The simulator follows the paper's model (§2.5, §3.2):
//
//   - each kernel's execution time on each processor comes from a lookup
//     table of measured times;
//   - moving a predecessor's output between distinct processors costs
//     size·bytes/rate over the link;
//   - a processor is occupied by a kernel for its incoming transfer plus its
//     execution (processors "currently executing kernels or data transfers"
//     are unavailable);
//   - the scheduling policy is invoked at time zero and after every kernel
//     completion, and may assign any number of kernels per invocation.
package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
)

// TransferMode selects how incoming transfers from multiple predecessors
// combine.
type TransferMode int

const (
	// TransferMax models fully concurrent links (the standard list-scheduling
	// assumption): the kernel waits for the slowest incoming transfer.
	TransferMax TransferMode = iota
	// TransferSum models a single shared ingress: transfers serialize.
	TransferSum
)

// String names the mode.
func (m TransferMode) String() string {
	switch m {
	case TransferMax:
		return "max"
	case TransferSum:
		return "sum"
	default:
		return fmt.Sprintf("TransferMode(%d)", int(m))
	}
}

// CostConfig parameterises the cost model.
type CostConfig struct {
	// ElemBytes is the size of one data element in bytes. The thesis never
	// states it; 4 (single-precision) is the documented default.
	ElemBytes float64
	// Mode selects multi-predecessor transfer combination; default TransferMax.
	Mode TransferMode
}

// DefaultCostConfig returns the documented defaults (4 bytes/element,
// concurrent-link transfers).
func DefaultCostConfig() CostConfig { return CostConfig{ElemBytes: 4, Mode: TransferMax} }

// Costs binds a graph, a platform and a lookup table into a fast, fully
// validated cost oracle. Every policy and the engine itself consult the
// same Costs, so all of them price work identically (the paper's policies
// all share one lookup table).
//
// # Estimates versus actuals
//
// A run carries up to two Costs with distinct roles. The Costs passed to
// Run is the estimate oracle: it is handed to Policy.Prepare and exposed
// through State.Costs/BusyUntil, so it is all a policy ever sees — its
// model of the platform. Options.ActualCosts, when set, is the actual
// oracle: the engine times execution and transfers from it (and takes λ's
// best-exec baseline from it), so it is what the platform really does.
// When ActualCosts is nil the two coincide and estimates are exact — the
// thesis's model. The perturb package builds actual tables from estimate
// tables (noise, bias, drift), and Options.Degrade stretches the actual
// durations further over time; neither ever leaks into the estimate side,
// which is what makes robustness runs honest: policies decide on beliefs,
// reality charges the truth.
type Costs struct {
	g   *dfg.Graph
	sys *platform.System
	cfg CostConfig
	np  int
	// exec is the kernel×processor execution-time matrix flattened row-major
	// with stride np (exec[k*np+p]), one contiguous allocation regardless of
	// graph size.
	exec []float64
	best []platform.ProcID
	mean []float64 // mean exec across procs, for HEFT ranks

	// ranked is the per-kernel ascending-execution-time processor order,
	// flattened with stride np and built lazily on the first RankedProcs
	// call (many runs never need it; 100k-kernel graphs should not pay an
	// O(n·P log P) sort up front). Rows are quantised to uint16 processor
	// indices — 2 bytes per entry instead of a 4-byte ProcID — which is why
	// PrepareCosts caps systems at 65535 processors. sync.Once keeps the
	// build race-free — one Costs is shared across worker goroutines.
	rankOnce sync.Once
	ranked   []uint16
}

// PrepareCosts precomputes the kernel×processor execution-time matrix and
// validates that the table covers every kernel in the graph on every
// processor kind in the system. From a few thousand kernels up the row
// fills shard across autoLanes parallel lanes; the result is byte-identical
// for every lane count.
func PrepareCosts(g *dfg.Graph, sys *platform.System, tab *lut.Table, cfg CostConfig) (*Costs, error) {
	if g == nil || sys == nil || tab == nil {
		return nil, fmt.Errorf("sim: PrepareCosts requires graph, system and table")
	}
	return prepareCosts(g, sys, tab, cfg, autoLanes(g.NumKernels()))
}

// prepareCosts is PrepareCosts over an explicit lane count. Rows are
// independent — each lane writes a disjoint slice of the matrix and derives
// best/mean per row — and the lookup table is immutable, so the resulting
// oracle is byte-identical for every lane count.
func prepareCosts(g *dfg.Graph, sys *platform.System, tab *lut.Table, cfg CostConfig, lanes int) (*Costs, error) {
	if cfg.ElemBytes == 0 {
		cfg.ElemBytes = DefaultCostConfig().ElemBytes
	}
	if cfg.ElemBytes < 0 {
		return nil, fmt.Errorf("sim: negative ElemBytes %v", cfg.ElemBytes)
	}
	n := g.NumKernels()
	np := sys.NumProcs()
	if np > math.MaxUint16 {
		return nil, fmt.Errorf("sim: %d processors exceed the ranked-order table's uint16 index space (max %d)", np, math.MaxUint16)
	}
	c := &Costs{
		g:    g,
		sys:  sys,
		cfg:  cfg,
		np:   np,
		exec: make([]float64, n*np),
		best: make([]platform.ProcID, n),
		mean: make([]float64, n),
	}
	errs := make([]laneError, clampLanes(lanes, n))
	parallelChunks(n, lanes, func(ch laneChunk) {
		for id := ch.lo; id < ch.hi; id++ {
			k := g.Kernel(dfg.KernelID(id))
			sum := 0.0
			best := platform.ProcID(0)
			bestMs := math.Inf(1)
			for p := 0; p < np; p++ {
				ms, err := tab.Exec(k.Name, k.DataElems, sys.KindOf(platform.ProcID(p)))
				if err != nil {
					errs[ch.lane] = laneError{at: id, err: fmt.Errorf("sim: kernel %d (%s, %d elems) on proc %d: %w",
						id, k.Name, k.DataElems, p, err)}
					return
				}
				c.exec[id*np+p] = ms
				sum += ms
				if ms < bestMs {
					bestMs = ms
					best = platform.ProcID(p)
				}
			}
			c.best[id] = best
			c.mean[id] = sum / float64(np)
		}
	})
	if err := firstLaneError(errs); err != nil {
		return nil, err
	}
	return c, nil
}

// Graph returns the bound graph.
func (c *Costs) Graph() *dfg.Graph { return c.g }

// System returns the bound platform.
func (c *Costs) System() *platform.System { return c.sys }

// Config returns the cost configuration in effect.
func (c *Costs) Config() CostConfig { return c.cfg }

// Exec returns the execution time in ms of kernel k on processor p.
//
//apt:hotpath
func (c *Costs) Exec(k dfg.KernelID, p platform.ProcID) float64 {
	return c.exec[int(k)*c.np+int(p)]
}

// ExecRow returns kernel k's execution times across all processors,
// indexed by ProcID. The slice aliases the flat cost table — do not modify.
func (c *Costs) ExecRow(k dfg.KernelID) []float64 {
	return c.exec[int(k)*c.np : int(k+1)*c.np]
}

// MeanExec returns the mean execution time of kernel k across all
// processors (the w̄ᵢ of HEFT's upward rank).
func (c *Costs) MeanExec(k dfg.KernelID) float64 { return c.mean[k] }

// BestProc returns the processor with the minimum execution time for k
// (the paper's pmin) and that minimum time. Ties break to the lower ID.
//
//apt:hotpath
func (c *Costs) BestProc(k dfg.KernelID) (platform.ProcID, float64) {
	p := c.best[k]
	return p, c.Exec(k, p)
}

// rankedRow returns kernel k's ascending-execution-time processor order
// from the lazily built flat table (ties by ID), as quantised uint16
// processor indices. The first call pays one O(n·P log P) pass; later calls
// are a slice expression.
func (c *Costs) rankedRow(k dfg.KernelID) []uint16 {
	c.rankOnce.Do(func() {
		n := c.g.NumKernels()
		np := c.np
		ranked := make([]uint16, n*np)
		for id := 0; id < n; id++ {
			out := ranked[id*np : (id+1)*np]
			for i := range out {
				out[i] = uint16(i)
			}
			exec := func(p uint16) float64 { return c.Exec(dfg.KernelID(id), platform.ProcID(p)) }
			// Insertion sort: np is small (3 in the paper's system, a few
			// hundred at most for the scale machines).
			for i := 1; i < np; i++ {
				for j := i; j > 0; j-- {
					a, b := out[j-1], out[j]
					// Three-way cost comparison (no float equality):
					// exact ties order by processor ID.
					if exec(a) < exec(b) {
						break
					}
					if exec(b) < exec(a) || b < a {
						out[j-1], out[j] = b, a
					} else {
						break
					}
				}
			}
		}
		c.ranked = ranked
	})
	return c.ranked[int(k)*c.np : int(k+1)*c.np]
}

// RankedProcs returns all processors ordered by ascending execution time
// for k (ties by ID). The slice is fresh and owned by the caller;
// allocation-sensitive callers should prefer AppendRankedProcs.
func (c *Costs) RankedProcs(k dfg.KernelID) []platform.ProcID {
	return c.AppendRankedProcs(make([]platform.ProcID, 0, c.np), k)
}

// AppendRankedProcs appends kernel k's ascending-execution-time processor
// order (same order as RankedProcs) to buf and returns the extended slice;
// with a reused buffer the query is allocation-free after the table's
// one-time lazy build.
func (c *Costs) AppendRankedProcs(buf []platform.ProcID, k dfg.KernelID) []platform.ProcID {
	for _, p := range c.rankedRow(k) {
		buf = append(buf, platform.ProcID(p))
	}
	return buf
}

// TransferMs returns the time to move elems elements across the directed
// link from -> to. Same-processor transfers are free; a zero-rate link
// between distinct processors is unusable and returns +Inf-like large cost
// — it is reported as an error at engine level, but policies pricing such a
// link see the huge cost and avoid it.
func (c *Costs) TransferMs(elems int64, from, to platform.ProcID) float64 {
	if from == to {
		return 0
	}
	rate := c.sys.Rate(from, to)
	if rate <= 0 {
		return unusableLinkMs
	}
	bytes := float64(elems) * c.cfg.ElemBytes
	return bytes / rate.BytesPerMs()
}

// unusableLinkMs prices a missing link. One year in milliseconds: large
// enough that any schedule using it loses, finite so arithmetic stays sane.
const unusableLinkMs = 365 * 24 * 3600 * 1000.0

// TransferIn returns the incoming-transfer time kernel k would pay if
// executed on processor p, given placement: a function reporting the
// processor of each finished predecessor. Predecessors on p contribute
// zero. Combination follows the configured TransferMode.
func (c *Costs) TransferIn(k dfg.KernelID, p platform.ProcID, placement func(dfg.KernelID) platform.ProcID) float64 {
	var in float64
	for _, pred := range c.g.Preds(k) {
		in = c.combine(in, c.TransferMs(c.g.Kernel(pred).OutElems, placement(pred), p))
	}
	return in
}

// TransferRow sets dst[p] to TransferIn(k, p, placement) for every
// processor p, walking k's predecessors once rather than once per
// processor. dst must hold one entry per processor.
func (c *Costs) TransferRow(k dfg.KernelID, placement func(dfg.KernelID) platform.ProcID, dst []float64) {
	dst = dst[:c.np]
	clear(dst)
	for _, pred := range c.g.Preds(k) {
		from, elems := placement(pred), c.g.Kernel(pred).OutElems
		for p := range dst {
			dst[p] = c.combine(dst[p], c.TransferMs(elems, from, platform.ProcID(p)))
		}
	}
}

// combine folds one predecessor's transfer time ms into the incoming time
// in so far, as the configured TransferMode says: the slowest link under
// TransferMax, the serialized sum under TransferSum.
func (c *Costs) combine(in, ms float64) float64 {
	if c.cfg.Mode == TransferSum {
		return in + ms
	}
	if ms > in {
		return ms
	}
	return in
}

// MeanTransfer returns the average transfer cost of edge u->v across all
// ordered processor pairs (used by HEFT/PEFT mean communication costs c̄ᵢⱼ;
// pairs on the same processor contribute zero, matching the standard
// formulation of averaging over all processor pairs).
func (c *Costs) MeanTransfer(u dfg.KernelID) float64 {
	np := c.sys.NumProcs()
	if np <= 1 {
		return 0
	}
	elems := c.g.Kernel(u).OutElems
	var sum float64
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			if i == j {
				continue
			}
			sum += c.TransferMs(elems, platform.ProcID(i), platform.ProcID(j))
		}
	}
	return sum / float64(np*np)
}
