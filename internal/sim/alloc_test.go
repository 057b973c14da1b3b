package sim

import (
	"testing"

	"repro/internal/dfg"
)

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

// TestSerialPhasesAllocs pins the allocations of PrepareCosts and Validate
// on a 512-kernel graph. PrepareCosts allocates 10 objects: the Costs
// header, the per-kernel shape and output-size indexes, the exec/best/mean
// shape tables, the transfer table and its means, the shape
// representatives and each processor's first processor of its kind (the
// small shape, size and kind maps and the size list stay on the stack).
// Validate allocates 2: the start log's n-bit set and each processor's
// last-started kernel. Both were 2 and 3 objects higher while they could
// split their loops across goroutines: each had a one-entry error slot and
// a loop closure, and Validate a one-entry finish maximum. Both phases now
// run on the caller's goroutine, so testing.AllocsPerRun's GOMAXPROCS=1
// pin hides nothing.
func TestSerialPhasesAllocs(t *testing.T) {
	env := tiny(t, 4)
	const n = 512
	g := treeDAG(n)
	c := mustCosts(t, g, env)
	res, err := Run(c, &greedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prep := testing.AllocsPerRun(20, func() {
		if _, err := PrepareCosts(g, env.sys, env.tab, CostConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	if prep != 10 {
		t.Errorf("PrepareCosts at %d kernels allocates %v objects, want 10", n, prep)
	}
	val := testing.AllocsPerRun(20, func() {
		if err := res.Validate(g, env.sys); err != nil {
			t.Fatal(err)
		}
	})
	if val != 2 {
		t.Errorf("Validate at %d kernels allocates %v objects, want 2", n, val)
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
