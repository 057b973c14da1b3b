package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
)

// fuzzNames and fuzzSizes are what fuzzDAG draws kernels from. Against
// fuzzTable the sizes hit exact rows (1000, 4000, 16000), interpolate
// between rows (2500, 7000) and clamp below (7, 100) and above (50000);
// "zz" is missing from the table.
var (
	fuzzNames = []string{"a", "b", "zz"}
	fuzzSizes = []int64{1000, 2500, 4000, 7, 16000, 7000, 100, 50000}
)

// fuzzDAG decodes an arbitrary byte string into a DAG over fuzzTable's
// kernels: the first byte picks the vertex count (2..41), the second how
// kernels draw names and sizes, every following byte pair an edge directed
// low ID -> high ID — always acyclic, often disconnected, which is exactly
// the shape the lane reducer must agree on. Shapes repeat; when the second
// byte's top bit is set, one kernel is named "zz", which the table lacks.
func fuzzDAG(data []byte) *dfg.Graph {
	if len(data) < 2 {
		return nil
	}
	n := int(data[0])%40 + 2
	mix := int(data[1])
	b := dfg.NewBuilder()
	for i := 0; i < n; i++ {
		name := fuzzNames[(mix+i)%3%2]
		if mix&0x80 != 0 && i == mix%n {
			name = fuzzNames[2]
		}
		size := fuzzSizes[(mix/2+i*(mix%5+1))%len(fuzzSizes)]
		b.AddKernel(dfg.Kernel{Name: name, DataElems: size})
	}
	for i := 2; i+1 < len(data); i += 2 {
		u := dfg.KernelID(int(data[i]) % n)
		v := dfg.KernelID(int(data[i+1]) % n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		b.AddEdge(u, v)
	}
	return b.MustBuild()
}

// fuzzTable prices kernels "a" and "b" on the paper's three kinds at
// several sizes, so lookups interpolate and clamp.
func fuzzTable(f *testing.F) *lut.Table {
	f.Helper()
	tab, err := lut.New([]lut.Entry{
		{Kernel: "a", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 10, platform.GPU: 2, platform.FPGA: 50}},
		{Kernel: "a", DataElems: 4000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 40, platform.GPU: 3, platform.FPGA: 3}},
		{Kernel: "a", DataElems: 16000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 170, platform.GPU: 9.5, platform.FPGA: 1.25}},
		{Kernel: "b", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 4, platform.GPU: 8, platform.FPGA: 1}},
		{Kernel: "b", DataElems: 16000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 0.1, platform.GPU: 16, platform.FPGA: 7}},
	})
	if err != nil {
		f.Fatal(err)
	}
	return tab
}

// fuzzMachines are the systems the lanes oracle runs on: the paper's three
// kinds; repeated kinds in mixed order, whose duplicate processors tie on
// execution time, with asymmetric and missing links; and the same with a
// kind the table lacks.
func fuzzMachines() []*platform.System {
	return []*platform.System{
		platform.PaperSystem(4),
		fuzzBuild(platform.GPU, platform.CPU, platform.GPU, platform.FPGA, platform.CPU, platform.FPGA, platform.GPU).
			SetRate(0, 3, 16).SetRate(3, 0, 0.5).SetRate(5, 1, 0).MustBuild(),
		fuzzBuild(platform.CPU, platform.GPU, platform.CPU, "DSP", platform.FPGA, "DSP").MustBuild(),
	}
}

// fuzzWideMachine has 130 processors of the paper's kinds with
// asymmetric links: its transfer table holds only 3 of fuzzDAG's up to 8
// output sizes, so the rest are priced link by link.
func fuzzWideMachine() *platform.System {
	wide := make([]platform.Kind, 130)
	for p := range wide {
		wide[p] = []platform.Kind{platform.CPU, platform.GPU, platform.FPGA}[p*7%3]
	}
	return fuzzBuild(wide...).SetRate(0, 129, 32).SetRate(129, 0, 1).SetRate(64, 2, 0.25).MustBuild()
}

// fuzzBuild starts a system of the given kinds with 4 GB/s links.
func fuzzBuild(kinds ...platform.Kind) *platform.Builder {
	b := platform.NewBuilder()
	for _, k := range kinds {
		b.AddProcessor(k, "")
	}
	return b.SetUniformRate(4)
}

// checkTransfers compares TransferIn, TransferRow and MeanTransfer with
// pricing every link on its own (directTransferIn, directMean), bit for
// bit, on every kernel and processor, under a placement that spreads the
// predecessors over the processors.
func checkTransfers(t *testing.T, what string, c *Costs) {
	t.Helper()
	g, np := c.Graph(), c.System().NumProcs()
	place := func(pred dfg.KernelID) platform.ProcID { return platform.ProcID(int(pred) * 7 % np) }
	row := make([]float64, np)
	means := map[int64]float64{} // directMean by output size: np² links each
	for k := range g.NumKernels() {
		id := dfg.KernelID(k)
		elems := g.Kernel(id).OutElems
		want, ok := means[elems]
		if !ok {
			want = directMean(c, elems)
			means[elems] = want
		}
		if got := c.MeanTransfer(id); !sameBits(got, want) {
			t.Fatalf("%s: MeanTransfer(%d) = %v, direct %v", what, k, got, want)
		}
		c.TransferRow(id, place, row)
		for p := range np {
			pid := platform.ProcID(p)
			want := directTransferIn(c, id, pid, place)
			if got := c.TransferIn(id, pid, place); !sameBits(got, want) {
				t.Fatalf("%s: TransferIn(%d, %d) = %v, direct %v", what, k, p, got, want)
			}
			if !sameBits(row[p], want) {
				t.Fatalf("%s: TransferRow(%d)[%d] = %v, direct %v", what, k, p, row[p], want)
			}
		}
	}
}

// refCosts is the reference PrepareCosts' shape table must agree with: it
// prices every (kernel, processor) pair with its own lookup-table call,
// walking kernels and then processors in ID order, and returns each
// kernel's execution row, best processor (ties to the lower ID) and mean,
// or the error PrepareCosts must return.
func refCosts(g *dfg.Graph, sys *platform.System, tab *lut.Table) (exec [][]float64, best []platform.ProcID, mean []float64, err error) {
	np := sys.NumProcs()
	for id := 0; id < g.NumKernels(); id++ {
		k := g.Kernel(dfg.KernelID(id))
		row := make([]float64, np)
		sum := 0.0
		bp := platform.ProcID(0)
		bestMs := math.Inf(1)
		for p := 0; p < np; p++ {
			ms, err := tab.Exec(k.Name, k.DataElems, sys.KindOf(platform.ProcID(p)))
			if err != nil {
				return nil, nil, nil, fmt.Errorf("sim: kernel %d (%s, %d elems) on proc %d: %w",
					id, k.Name, k.DataElems, p, err)
			}
			row[p] = ms
			sum += ms
			if ms < bestMs {
				bestMs, bp = ms, platform.ProcID(p)
			}
		}
		exec = append(exec, row)
		best = append(best, bp)
		mean = append(mean, sum/float64(np))
	}
	return exec, best, mean, nil
}

// fixedLanes is a prepareCosts lane rule that ignores the row count.
func fixedLanes(lanes int) func(rows int) int { return func(int) int { return lanes } }

// sameBits reports whether two float64s are the same value bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzLanesOracle is the shape-table, transfer-table and
// partition-vs-serial oracle: for arbitrary DAGs on every fuzz machine,
// cost tables prepared at 1, 2, 4 and one-per-CPU lanes must return
// exactly what per-(kernel, processor) pricing does — Exec, ExecRow,
// BestProc and MeanExec bit for bit, or the same error string — and
// exactly what per-link pricing does for TransferIn, TransferRow and
// MeanTransfer under both transfer modes; runs over them must serialise
// to the same bytes as the serial run, and the lane-parallel validator
// must accept every schedule the serial one accepts. When bits 4 and 5 of
// the second byte are set, the transfer checks also run on
// fuzzWideMachine, whose table overflows; a 2¹⁶-entry table per input
// would otherwise slow every input about tenfold.
func FuzzLanesOracle(f *testing.F) {
	f.Add([]byte{5, 0})
	f.Add([]byte{11, 1, 0, 1, 1, 2, 0, 2, 5, 9})
	f.Add([]byte{39, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200, 100})
	f.Add([]byte{20, 0x93, 0, 5, 5, 9})
	f.Add([]byte{33, 0x47, 3, 4, 4, 30, 1, 2})
	f.Add([]byte{39, 0x31, 0, 1, 1, 2, 2, 38, 5, 9, 9, 20})
	tab := fuzzTable(f)
	machines := fuzzMachines()
	wide := fuzzWideMachine()
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzDAG(data)
		if g == nil {
			return
		}
		for mi, sys := range machines {
			wantExec, wantBest, wantMean, wantErr := refCosts(g, sys, tab)
			var serial *Costs
			for _, lanes := range []int{1, 2, 4, runtime.NumCPU()} {
				c, err := prepareCosts(g, sys, tab, CostConfig{}, fixedLanes(lanes))
				if wantErr != nil {
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("machine %d lanes=%d: error %v, per-kernel pricing gives %v", mi, lanes, err, wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("machine %d lanes=%d: prepareCosts: %v", mi, lanes, err)
				}
				for k := range wantExec {
					id := dfg.KernelID(k)
					row := c.ExecRow(id)
					for p, want := range wantExec[k] {
						if !sameBits(row[p], want) || !sameBits(c.Exec(id, platform.ProcID(p)), want) {
							t.Fatalf("machine %d lanes=%d: exec[%d][%d] = %v/%v, want %v",
								mi, lanes, k, p, row[p], c.Exec(id, platform.ProcID(p)), want)
						}
					}
					bp, bms := c.BestProc(id)
					if bp != wantBest[k] || !sameBits(bms, wantExec[k][wantBest[k]]) {
						t.Fatalf("machine %d lanes=%d: BestProc(%d) = %d/%v, want %d", mi, lanes, k, bp, bms, wantBest[k])
					}
					if !sameBits(c.MeanExec(id), wantMean[k]) {
						t.Fatalf("machine %d lanes=%d: MeanExec(%d) = %v, want %v", mi, lanes, k, c.MeanExec(id), wantMean[k])
					}
				}
				if lanes == 1 {
					serial = c
				}
			}
			if wantErr != nil {
				continue
			}
			// The transfer tables are filled serially, so one cost table
			// per transfer mode covers every lane count.
			sum, err := PrepareCosts(g, sys, tab, CostConfig{Mode: TransferSum})
			if err != nil {
				t.Fatalf("machine %d: TransferSum costs: %v", mi, err)
			}
			checkTransfers(t, fmt.Sprintf("machine %d", mi), serial)
			checkTransfers(t, fmt.Sprintf("machine %d, TransferSum", mi), sum)
			checkLaneRuns(t, g, sys, tab, serial)
		}
		if data[1]&0x30 != 0x30 {
			return
		}
		for _, mode := range []TransferMode{TransferMax, TransferSum} {
			c, err := PrepareCosts(g, wide, tab, CostConfig{Mode: mode})
			if err != nil {
				continue // "zz" is missing from the table
			}
			checkTransfers(t, fmt.Sprintf("wide machine, %v", mode), c)
		}
	})
}

// checkLaneRuns runs greedy over the serial cost table and over tables
// prepared at several lane counts: every run must print exactly as the
// serial run does (%v writes each float's shortest round-trip form, so
// equal text means equal bits up to NaN payloads), and the lane-parallel
// validator must accept each schedule.
func checkLaneRuns(t *testing.T, g *dfg.Graph, sys *platform.System, tab *lut.Table, serialCosts *Costs) {
	t.Helper()
	serial, err := Run(serialCosts, &greedy{}, Options{})
	if err != nil {
		return
	}
	want := fmt.Sprintf("%v", *serial)
	for _, lanes := range []int{2, 4, runtime.NumCPU()} {
		laneCosts, err := prepareCosts(g, sys, tab, CostConfig{}, fixedLanes(lanes))
		if err != nil {
			t.Fatalf("lanes=%d: prepareCosts: %v", lanes, err)
		}
		res, err := Run(laneCosts, &greedy{}, Options{})
		if err != nil {
			t.Fatalf("lanes=%d: run failed where serial succeeded: %v", lanes, err)
		}
		if err := res.validate(g, sys, lanes); err != nil {
			t.Fatalf("lanes=%d: schedule rejected: %v", lanes, err)
		}
		if got := fmt.Sprintf("%v", *res); got != want {
			t.Fatalf("lanes=%d: result differs from serial engine", lanes)
		}
	}
}

func TestLaneChunksTile(t *testing.T) {
	for _, tc := range []struct{ n, lanes int }{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {5, 4}, {100, 7}, {10, 1}, {10, -1}, {10, 0},
	} {
		chunks := laneChunks(tc.n, tc.lanes)
		lo := 0
		for i, c := range chunks {
			if c.lane != i {
				t.Fatalf("n=%d lanes=%d: chunk %d stamped %d", tc.n, tc.lanes, i, c.lane)
			}
			if c.lo != lo {
				t.Fatalf("n=%d lanes=%d: chunk %d starts at %d, want %d", tc.n, tc.lanes, i, c.lo, lo)
			}
			if c.hi < c.lo {
				t.Fatalf("n=%d lanes=%d: chunk %d inverted", tc.n, tc.lanes, i)
			}
			if d := (c.hi - c.lo) - tc.n/len(chunks); d < 0 || d > 1 {
				t.Fatalf("n=%d lanes=%d: chunk %d length %d not within one of %d",
					tc.n, tc.lanes, i, c.hi-c.lo, tc.n/len(chunks))
			}
			lo = c.hi
		}
		if lo != tc.n {
			t.Fatalf("n=%d lanes=%d: chunks cover [0,%d), want [0,%d)", tc.n, tc.lanes, lo, tc.n)
		}
	}
}

// TestAutoLanes pins the lane-count rule: one lane per minKernelsPerLane
// kernels, at least one, at most GOMAXPROCS.
func TestAutoLanes(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ n, want int }{
		{0, 1},
		{157, 1}, // the paper's largest suite graph stays serial
		{minKernelsPerLane - 1, 1},
		{2 * minKernelsPerLane, min(2, procs)},
		{10_000, min(4, procs)},
		{1 << 30, procs},
	} {
		if got := autoLanes(tc.n); got != tc.want {
			t.Errorf("autoLanes(%d) = %d, want %d (GOMAXPROCS %d)", tc.n, got, tc.want, procs)
		}
	}
	if got := clampLanes(8, 3); got != 3 {
		t.Errorf("clampLanes(8, n=3) = %d, want 3", got)
	}
	if got := clampLanes(0, 100); got != 1 {
		t.Errorf("clampLanes(0, 100) = %d, want 1", got)
	}
}

// treeDAG is an n-kernel binary out-tree alternating the tiny table's two
// kernel names.
func treeDAG(n int) *dfg.Graph {
	b := dfg.NewBuilder()
	for i := 0; i < n; i++ {
		name := "a"
		if i%2 == 1 {
			name = "b"
		}
		b.AddKernel(dfg.Kernel{Name: name, DataElems: 1000})
	}
	for i := 1; i < n; i++ {
		b.AddEdge(dfg.KernelID(i/2), dfg.KernelID(i))
	}
	return b.MustBuild()
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS=1 pin: the
// lane count is derived from GOMAXPROCS, so counting under one proc would
// hide a goroutine fan-out that a multi-core caller pays.
func mallocsPerRun(runs int, fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestSerialPhasesAllocs pins the below-threshold path: on a graph too small
// for a second lane, PrepareCosts and Validate must start no goroutines and
// build no chunk slices, even with several procs available. The counts are
// the serial path's own allocations: PrepareCosts the Costs header, the
// per-kernel shape and output-size indexes, the exec/best/mean shape
// tables, the transfer table and its means, the shape representatives,
// each processor's first processor of its kind, the one-entry error slot
// and the row-fill closure (the small shape, size and kind maps and the
// size list stay on the stack); Validate its per-lane scratch (error slot,
// finish max), the lifecycle closure, the start log's n-bit set and each
// processor's last-started kernel. Validate went from 9 to 5 when
// occupancy moved onto the start log: the per-lane processor counts, the
// occupancy index, its bucket starts, the processor error slot and two
// closures went, and the bit set and last-started slots came.
func TestSerialPhasesAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	env := tiny(t, 4)
	const n = 512
	g := treeDAG(n)
	c := mustCosts(t, g, env)
	res, err := Run(c, &greedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prep := mallocsPerRun(20, func() {
		if _, err := PrepareCosts(g, env.sys, env.tab, CostConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	if prep != 12 {
		t.Errorf("PrepareCosts at %d kernels allocates %d objects, want the serial path's 12", n, prep)
	}
	val := mallocsPerRun(20, func() {
		if err := res.Validate(g, env.sys); err != nil {
			t.Fatal(err)
		}
	})
	if val != 5 {
		t.Errorf("Validate at %d kernels allocates %d objects, want the serial path's 5", n, val)
	}
}

func TestFirstLaneError(t *testing.T) {
	errA := &SizeErrorStub{"a"}
	errB := &SizeErrorStub{"b"}
	if err := firstLaneError([]laneError{{at: 3}, {at: 7}}); err != nil {
		t.Errorf("all-nil lanes returned %v", err)
	}
	got := firstLaneError([]laneError{
		{at: 9, err: errB},
		{at: 2, err: errA},
		{at: 5, err: errB},
	})
	if got != errA {
		t.Errorf("firstLaneError = %v, want lowest-stamp error %v", got, errA)
	}
}

// SizeErrorStub is a distinguishable error value for reducer tests.
type SizeErrorStub struct{ s string }

func (e *SizeErrorStub) Error() string { return e.s }

func TestParallelOverDisjointWrites(t *testing.T) {
	const n = 1000
	for _, lanes := range []int{1, 2, 4, 7, runtime.NumCPU()} {
		out := make([]int32, n)
		parallelChunks(n, lanes, func(c laneChunk) {
			for i := c.lo; i < c.hi; i++ {
				out[i]++
			}
		})
		for i, v := range out {
			if v != 1 {
				t.Fatalf("lanes=%d: index %d written %d times", lanes, i, v)
			}
		}
	}
	out := make([]int32, 3*minKernelsPerLane)
	ParallelOver(len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i]++
		}
	})
	for i, v := range out {
		if v != 1 {
			t.Fatalf("ParallelOver: index %d written %d times", i, v)
		}
	}
}

// TestPlacementArenaBlocks exercises the slab allocator directly: blocks
// are zeroed, disjoint, and appending to one cannot clobber its neighbour.
func TestPlacementArenaBlocks(t *testing.T) {
	var a arena[Placement]
	b1 := a.alloc(10)
	b2 := a.alloc(20)
	if len(b1) != 10 || len(b2) != 20 {
		t.Fatalf("block lengths %d, %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i] != (Placement{}) {
			t.Fatalf("b1[%d] not zeroed: %+v", i, b1[i])
		}
	}
	b1[9].Kernel = 99
	if b2[0].Kernel != 0 {
		t.Fatal("blocks overlap: write to b1 visible in b2")
	}
	// Append past a block's end must copy out, not run into the slab.
	grown := append(b1, Placement{Kernel: 7})
	if b2[0].Kernel != 0 {
		t.Fatalf("append to b1 clobbered b2: %+v", b2[0])
	}
	if grown[10].Kernel != 7 {
		t.Fatal("append lost the new element")
	}
	// A request larger than the remaining slab still yields a usable block.
	big := a.alloc(arenaMaxSlab + 1)
	if len(big) != arenaMaxSlab+1 {
		t.Fatalf("big block length %d", len(big))
	}
}

// TestPlacementArenaAdaptiveSizing pins the growth contract: a cold arena's
// first slab is exactly the requested block (one-shot runs pay no slab tax),
// refills double the previous capacity, and growth caps at arenaMaxSlab.
func TestPlacementArenaAdaptiveSizing(t *testing.T) {
	var a arena[Placement]
	a.alloc(100)
	if c := cap(a.slab); c != 100 {
		t.Fatalf("cold slab cap = %d, want exactly 100", c)
	}
	a.alloc(150) // exceeds the 100-slab: refill doubles to 200
	if c := cap(a.slab); c != 200 {
		t.Fatalf("second slab cap = %d, want 200", c)
	}
	var b arena[Placement]
	for i := 0; i < 40; i++ {
		b.alloc(arenaMaxSlab / 4)
	}
	if c := cap(b.slab); c > arenaMaxSlab {
		t.Fatalf("slab cap %d exceeds arenaMaxSlab %d", c, arenaMaxSlab)
	}
	// Private-block path: a half-slab-or-larger request must not disturb the
	// shared slab (it would strand the tail on every refill).
	before := cap(b.slab)
	blk := b.alloc(arenaMaxSlab / 2)
	if len(blk) != arenaMaxSlab/2 {
		t.Fatalf("private block length %d", len(blk))
	}
	if cap(b.slab) != before {
		t.Fatal("large block consumed the shared slab")
	}
}

// TestRunnerWarmRunAllocsSlab pins the slab-backed placement path: a warm
// runner re-running the same workload must not allocate per kernel — the
// arena hands out sub-slices of one slab, so steady-state allocations stay
// O(1) regardless of graph size.
func TestRunnerWarmRunAllocsSlab(t *testing.T) {
	env := tiny(t, 4)
	const n = 512
	c := mustCosts(t, treeDAG(n), env)
	r := NewRunner()
	pol := &leanGreedy{}
	if _, err := r.Run(c, pol, Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.Run(c, pol, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// The warm path allocates a handful of fixed-size headers (result
	// struct, stats slices); the bound is intentionally far below one
	// allocation per kernel (n = 512).
	if allocs > 32 {
		t.Errorf("warm run allocates %.0f objects for %d kernels; placement slab regressed", allocs, n)
	}
}
