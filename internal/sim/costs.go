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
	"sync/atomic"

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
	// Mode selects multi-predecessor transfer combination; default TransferMax.
	Mode TransferMode
}

// elemBytes is the size of one data element in bytes. The thesis never
// states it; 4 (single precision) is what every run assumes.
const elemBytes = 4

// Costs binds a graph, a platform and a lookup table into a fast, fully
// validated cost oracle. Every policy and the engine itself consult the
// same Costs, so all of them price work identically (the paper's policies
// all share one lookup table).
//
// The lookup table prices a kernel by its name, its data size and the kind
// of processor it runs on, and by nothing else (§2.5, §3.2). So Costs keys
// its tables by shape, the (Name, DataElems) pair: kernels of one shape
// share one execution-time row, one best processor and one mean, and each
// kernel keeps only a 4-byte shape index. Graphs repeat shapes heavily (the
// 10k-kernel layered DAGs hold 25), so the tables cost almost nothing per
// kernel; a graph whose kernels are all distinct gets one row per kernel.
//
// # Estimates versus actuals
//
// A run carries up to two Costs with distinct roles. The Costs passed to
// Run is the estimate oracle: it is handed to Policy.Prepare and priced
// through State.BusyUntil, so it is all a policy ever sees — its
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
	// shape[k] is kernel k's row in the shape tables below. Shapes are
	// numbered in order of their first kernel.
	shape []int32
	// exec is the shape×processor execution-time matrix flattened row-major
	// with stride np (exec[s*np+p]), one contiguous allocation.
	exec []float64
	best []platform.ProcID // per shape: the processor BestProc returns
	mean []float64         // per shape: mean exec across procs, for HEFT ranks
	// out[k] is kernel k's output-size number, or -1 past MaxMemoKeys
	// sizes. Sizes are numbered in order of their first kernel.
	out []int32
	// xfer is the transfer table of the first xferRows sizes:
	// xfer[(s*np+from)*np+to] = TransferMs(size s, from, to). Other sizes
	// are priced link by link.
	xfer     []float64
	xferRows int
	// means[s] holds size s's MeanTransfer as float64 bits once asked for,
	// and unpriced before: only HEFT and PEFT ask, and a size past the
	// transfer table costs np² links to average. Concurrent runs sharing
	// the Costs may both price a size; they store the same bits.
	means []atomic.Uint64
}

// unpriced marks a means entry not yet priced. It is a NaN, which no mean
// of non-negative transfer times is, and were one to be, it would only be
// priced again.
const unpriced = 0x7FF8_0000_0000_0bad

// MaxMemoKeys caps the distinct keys a per-graph memo table takes:
// PrepareCosts' maps of shapes and of output sizes, and so the shape rows
// and the memoised mean transfer costs. Past the cap a new key is priced
// every time it occurs, so a graph whose kernels are all distinct pays one
// map lookup per kernel, not one insert.
const MaxMemoKeys = 256

// maxXferEntries caps the transfer table at 2¹⁶ entries (512 KiB): an
// output size takes np² of them, so up to 16 processors table every
// numbered size and 130 processors the first 3. The sizes past the cap,
// and every size on more than 256 processors, are priced link by link.
// The graph bounds the table too (see fillTransfers).
const maxXferEntries = 1 << 16

// shapeKey is what the lookup table prices a kernel by, apart from the
// processor kind.
type shapeKey struct {
	name  string
	elems int64
}

// PrepareCosts precomputes the shape×processor execution-time matrix and
// validates that the table covers every kernel in the graph on every
// processor kind in the system. One pass numbers the shapes; then each
// shape row is filled with one lookup per processor kind, copied to that
// kind's processors, and its best and mean derived in processor-ID order.
// The oracle is byte-identical to pricing every (kernel, processor) pair
// on its own, and the error is the one that pricing reports first.
func PrepareCosts(g *dfg.Graph, sys *platform.System, tab *lut.Table, cfg CostConfig) (*Costs, error) {
	if g == nil || sys == nil || tab == nil {
		return nil, fmt.Errorf("sim: PrepareCosts requires graph, system and table")
	}
	kernels := g.Kernels()
	np := sys.NumProcs()
	c := &Costs{g: g, sys: sys, cfg: cfg, np: np,
		shape: make([]int32, len(kernels)), out: make([]int32, len(kernels))}

	// Number the shapes in order of their first kernel, their
	// representative. Shape order is then representative order, so the
	// lowest-numbered failing shape names the first kernel that fails.
	// Output sizes are numbered the same way. A shape's kernels usually
	// share an output size, so a memoised shape remembers its first
	// kernel's, and only a kernel whose size differs looks it up.
	rows := 0
	ids := make(map[shapeKey]int32)
	sizeIDs := make(map[int64]int32)
	sizes := make([]int64, 0, MaxMemoKeys)
	var shapeSize [MaxMemoKeys]int32 // by memoised shape: its first kernel's size number
	for id := range kernels {
		key := shapeKey{kernels[id].Name, kernels[id].DataElems}
		s, seen := ids[key]
		if !seen {
			s = int32(rows)
			rows++
			if len(ids) < MaxMemoKeys {
				ids[key] = s
			}
		}
		c.shape[id] = s
		elems := kernels[id].OutElems
		o := int32(-1)
		if seen && shapeSize[s] >= 0 && sizes[shapeSize[s]] == elems {
			o = shapeSize[s]
		} else if v, ok := sizeIDs[elems]; ok {
			o = v
		} else if len(sizes) < MaxMemoKeys {
			o = int32(len(sizes))
			sizeIDs[elems] = o
			sizes = append(sizes, elems)
		}
		if !seen && s < MaxMemoKeys {
			shapeSize[s] = o
		}
		c.out[id] = o
	}
	c.fillTransfers(sizes)
	// A kernel starts a new shape exactly where its index exceeds every
	// earlier kernel's, so a second pass collects the representatives
	// into one exactly sized slice.
	reps := make([]dfg.KernelID, rows)
	next := int32(0)
	for id, s := range c.shape {
		if s == next {
			reps[s] = dfg.KernelID(id)
			next++
		}
	}

	// firstOf[p] is the lowest-ID processor of p's kind. Pricing each kind
	// on its first processor, in ID order, reports the lowest failing
	// processor, as a walk over the processors would.
	firstOf := make([]platform.ProcID, np)
	kindFirst := make(map[platform.Kind]platform.ProcID)
	for p := range np {
		kind := sys.KindOf(platform.ProcID(p))
		f, ok := kindFirst[kind]
		if !ok {
			f = platform.ProcID(p)
			kindFirst[kind] = f
		}
		firstOf[p] = f
	}

	c.exec = make([]float64, rows*np)
	c.best = make([]platform.ProcID, rows)
	c.mean = make([]float64, rows)
	for s, id := range reps {
		k := &kernels[id]
		row := c.exec[s*np : (s+1)*np]
		for p := range row {
			if int(firstOf[p]) != p {
				continue
			}
			ms, err := tab.Exec(k.Name, k.DataElems, sys.KindOf(platform.ProcID(p)))
			if err != nil {
				return nil, fmt.Errorf("sim: kernel %d (%s, %d elems) on proc %d: %w",
					id, k.Name, k.DataElems, p, err)
			}
			row[p] = ms
		}
		sum := 0.0
		best := platform.ProcID(0)
		bestMs := math.Inf(1)
		for p := range row {
			ms := row[firstOf[p]] // priced above
			row[p] = ms
			sum += ms
			if ms < bestMs {
				bestMs = ms
				best = platform.ProcID(p)
			}
		}
		c.best[s] = best
		c.mean[s] = sum / float64(np)
	}
	return c, nil
}

// fillTransfers marks every numbered size's mean unpriced and fills the
// transfer table for as many of the sizes as it may hold, with TransferMs
// itself, so a table read is bit for bit the direct price. The table holds
// at most maxXferEntries entries and at most ⌊n/np⌋ sizes for n kernels: a
// size takes np² entries, and a run reads at most n·np, since each
// kernel's output leaves from the one processor it ran on. So a 41-kernel
// graph on 130 processors prices every link directly instead of tabling
// 16 900 entries a size to read a few hundred.
func (c *Costs) fillTransfers(sizes []int64) {
	np := c.np
	c.means = make([]atomic.Uint64, len(sizes))
	for s := range c.means {
		c.means[s].Store(unpriced)
	}
	c.xferRows = min(len(sizes), maxXferEntries/max(1, np*np), len(c.out)/max(1, np))
	c.xfer = make([]float64, c.xferRows*np*np)
	for s, elems := range sizes[:c.xferRows] {
		tab := c.xfer[s*np*np : (s+1)*np*np]
		for from := range np {
			for to := range np {
				tab[from*np+to] = c.TransferMs(elems, platform.ProcID(from), platform.ProcID(to))
			}
		}
	}
}

// xferAt returns where the transfer table's row for kernel u's output sent
// from processor from starts, or -1 when u's size has no table rows.
func (c *Costs) xferAt(u dfg.KernelID, from platform.ProcID) int {
	s := c.out[u]
	if uint32(s) >= uint32(c.xferRows) { // -1 too
		return -1
	}
	return (int(s)*c.np + int(from)) * c.np
}

// meanOf is MeanTransfer for a size: the sum over ordered pairs of
// distinct processors, in row-major order, over np². tab is the size's
// transfer table, or nil to price each link.
func (c *Costs) meanOf(elems int64, tab []float64) float64 {
	np := c.np
	if np <= 1 {
		return 0
	}
	var sum float64
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			if i == j {
				continue
			}
			if tab != nil {
				sum += tab[i*np+j]
			} else {
				sum += c.TransferMs(elems, platform.ProcID(i), platform.ProcID(j))
			}
		}
	}
	return sum / float64(np*np)
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
	return c.exec[int(c.shape[k])*c.np+int(p)]
}

// ExecRow returns kernel k's execution times across all processors,
// indexed by ProcID. The slice aliases the shape table, shared by every
// kernel of k's shape — do not modify.
func (c *Costs) ExecRow(k dfg.KernelID) []float64 {
	s := int(c.shape[k])
	return c.exec[s*c.np : (s+1)*c.np]
}

// MeanExec returns the mean execution time of kernel k across all
// processors (the w̄ᵢ of HEFT's upward rank).
func (c *Costs) MeanExec(k dfg.KernelID) float64 { return c.mean[c.shape[k]] }

// Shape returns kernel k's shape row: kernels of one (Name, DataElems)
// shape share it, except past MaxMemoKeys shapes, where a repeat may get a
// row of its own. Rows are numbered from 0 in order of their first kernel.
func (c *Costs) Shape(k dfg.KernelID) int { return int(c.shape[k]) }

// NumShapes returns the number of shape rows.
func (c *Costs) NumShapes() int { return len(c.best) }

// BestProc returns the processor with the minimum execution time for k
// (the paper's pmin) and that minimum time. Ties break to the lower ID.
//
//apt:hotpath
func (c *Costs) BestProc(k dfg.KernelID) (platform.ProcID, float64) {
	s := int(c.shape[k])
	p := c.best[s]
	return p, c.exec[s*c.np+int(p)]
}

// TransferMs returns the time to move elems elements of elemBytes bytes
// each across the directed link from -> to. Same-processor transfers are free; a zero-rate link
// between distinct processors is unusable and returns +Inf-like large cost
// — it is reported as an error at engine level, but policies pricing such a
// link see the huge cost and avoid it. Prices of a graph's kernels come
// from the tables PrepareCosts builds with it (TransferOut).
func (c *Costs) TransferMs(elems int64, from, to platform.ProcID) float64 {
	if from == to {
		return 0
	}
	rate := c.sys.Rate(from, to)
	if rate <= 0 {
		return unusableLinkMs
	}
	bytes := float64(elems) * elemBytes
	return bytes / rate.BytesPerMs()
}

// unusableLinkMs prices a missing link. One year in milliseconds: large
// enough that any schedule using it loses, finite so arithmetic stays sane.
const unusableLinkMs = 365 * 24 * 3600 * 1000.0

// TransferOut returns the time to move kernel u's output across the
// directed link from -> to: TransferMs of u's OutElems, read from the
// transfer table when u's size has a row.
func (c *Costs) TransferOut(u dfg.KernelID, from, to platform.ProcID) float64 {
	if at := c.xferAt(u, from); at >= 0 {
		return c.xfer[at+int(to)]
	}
	return c.TransferMs(c.g.Kernels()[u].OutElems, from, to)
}

// TransferIn returns the incoming-transfer time kernel k would pay if
// executed on processor p, given placement: a function reporting the
// processor of each finished predecessor. Predecessors on p contribute
// zero. Combination follows the configured TransferMode.
func (c *Costs) TransferIn(k dfg.KernelID, p platform.ProcID, placement func(dfg.KernelID) platform.ProcID) float64 {
	var in float64
	for _, pred := range c.g.Preds(k) {
		in = c.combine(in, c.TransferOut(pred, placement(pred), p))
	}
	return in
}

// TransferRow sets dst[p] to TransferIn(k, p, placement) for every
// processor p, walking k's predecessors once rather than once per
// processor. dst must hold one entry per processor.
func (c *Costs) TransferRow(k dfg.KernelID, placement func(dfg.KernelID) platform.ProcID, dst []float64) {
	dst = dst[:c.np]
	clear(dst)
	kernels := c.g.Kernels()
	sum := c.cfg.Mode == TransferSum
	for _, pred := range c.g.Preds(k) {
		from := placement(pred)
		if at := c.xferAt(pred, from); at >= 0 {
			row := c.xfer[at : at+c.np]
			if sum {
				for p, ms := range row {
					dst[p] += ms
				}
			} else {
				for p, ms := range row {
					if ms > dst[p] {
						dst[p] = ms
					}
				}
			}
			continue
		}
		for p := range dst {
			dst[p] = c.combine(dst[p], c.TransferMs(kernels[pred].OutElems, from, platform.ProcID(p)))
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
// formulation of averaging over all processor pairs). It depends only on
// u's output size, so each numbered size is averaged once, from the
// transfer table when the size has rows there.
func (c *Costs) MeanTransfer(u dfg.KernelID) float64 {
	elems := c.g.Kernels()[u].OutElems
	s := c.out[u]
	if s < 0 {
		return c.meanOf(elems, nil)
	}
	if b := c.means[s].Load(); b != unpriced {
		return math.Float64frombits(b)
	}
	var tab []float64
	if int(s) < c.xferRows {
		tab = c.xfer[int(s)*c.np*c.np : (int(s)+1)*c.np*c.np]
	}
	v := c.meanOf(elems, tab)
	c.means[s].Store(math.Float64bits(v))
	return v
}
