package sim

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
)

// fuzzDAG decodes an arbitrary byte string into a DAG over the tiny test
// table's kernel names: the first byte picks the vertex count (2..41), the
// second alternates names, every following byte pair an edge directed low
// ID -> high ID — always acyclic, often disconnected, which is exactly the
// shape the component partitioner and the lane reducer must agree on.
func fuzzDAG(data []byte) *dfg.Graph {
	if len(data) < 2 {
		return nil
	}
	n := int(data[0])%40 + 2
	b := dfg.NewBuilder()
	for i := 0; i < n; i++ {
		name := "a"
		if (int(data[1])+i)%3 == 0 {
			name = "b"
		}
		b.AddKernel(dfg.Kernel{Name: name, DataElems: 1000})
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

// FuzzLanesOracle is the partition-vs-serial oracle: for arbitrary DAGs,
// cost tables prepared across 1, 2, 4 and one-per-CPU lanes must match the
// serial tables bit for bit, runs over them must serialise to the same
// bytes as the serial run, and the lane-parallel validator must accept
// every schedule the serial one accepts.
func FuzzLanesOracle(f *testing.F) {
	f.Add([]byte{5, 0})
	f.Add([]byte{11, 1, 0, 1, 1, 2, 0, 2, 5, 9})
	f.Add([]byte{39, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200, 100})
	env := tinyF(f, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzDAG(data)
		if g == nil {
			return
		}
		serialCosts, err := prepareCosts(g, env.sys, env.tab, CostConfig{}, 1)
		if err != nil {
			return
		}
		serial, err := Run(serialCosts, &greedy{}, Options{})
		if err != nil {
			return
		}
		var want bytes.Buffer
		if err := serial.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{2, 4, runtime.NumCPU()} {
			laneCosts, err := prepareCosts(g, env.sys, env.tab, CostConfig{}, lanes)
			if err != nil {
				t.Fatalf("lanes=%d: prepareCosts: %v", lanes, err)
			}
			for k := 0; k < g.NumKernels(); k++ {
				id := dfg.KernelID(k)
				rowS := serialCosts.ExecRow(id)
				rowL := laneCosts.ExecRow(id)
				for p := range rowS {
					if rowS[p] != rowL[p] {
						t.Fatalf("lanes=%d: exec[%d][%d] = %v, serial %v", lanes, k, p, rowL[p], rowS[p])
					}
				}
			}
			res, err := Run(laneCosts, &greedy{}, Options{})
			if err != nil {
				t.Fatalf("lanes=%d: run failed where serial succeeded: %v", lanes, err)
			}
			if err := res.validate(g, env.sys, lanes); err != nil {
				t.Fatalf("lanes=%d: schedule rejected: %v", lanes, err)
			}
			var got bytes.Buffer
			if err := res.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("lanes=%d: result JSON differs from serial engine", lanes)
			}
		}
	})
}

// tinyF is tiny for fuzz targets (testing.F and testing.T share no common
// interface, so the setup is duplicated rather than abstracted).
func tinyF(f *testing.F, rate platform.GBps) tinyEnv {
	f.Helper()
	tab, err := lut.New([]lut.Entry{
		{Kernel: "a", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 10, platform.GPU: 2, platform.FPGA: 50}},
		{Kernel: "b", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 4, platform.GPU: 8, platform.FPGA: 1}},
	})
	if err != nil {
		f.Fatal(err)
	}
	return tinyEnv{sys: platform.PaperSystem(rate), tab: tab}
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
// the serial path's own allocations: PrepareCosts the Costs header, its
// exec/best/mean tables, the one-entry error slot and the row-fill closure;
// Validate its per-lane scratch (error slot, finish max, per-proc counts),
// the occupancy index, the bucket starts, the proc error slot, two closures
// and one sort.Slice per processor.
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
	if prep != 6 {
		t.Errorf("PrepareCosts at %d kernels allocates %d objects, want the serial path's 6", n, prep)
	}
	val := mallocsPerRun(20, func() {
		if err := res.Validate(g, env.sys); err != nil {
			t.Fatal(err)
		}
	})
	if val != 15 {
		t.Errorf("Validate at %d kernels allocates %d objects, want the serial path's 15", n, val)
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
	var a placementArena
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
	var a placementArena
	a.alloc(100)
	if c := cap(a.slab); c != 100 {
		t.Fatalf("cold slab cap = %d, want exactly 100", c)
	}
	a.alloc(150) // exceeds the 100-slab: refill doubles to 200
	if c := cap(a.slab); c != 200 {
		t.Fatalf("second slab cap = %d, want 200", c)
	}
	var b placementArena
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
