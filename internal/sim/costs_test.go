package sim

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/workload"
)

func TestPrepareCostsValidation(t *testing.T) {
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	if _, err := PrepareCosts(nil, env.sys, env.tab, CostConfig{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := PrepareCosts(g, env.sys, env.tab, CostConfig{ElemBytes: -1}); err == nil {
		t.Error("negative ElemBytes accepted")
	}
	// Kernel missing from the table.
	b := dfg.NewBuilder()
	b.AddKernel(dfg.Kernel{Name: "mystery", DataElems: 10})
	bad := b.MustBuild()
	if _, err := PrepareCosts(bad, env.sys, env.tab, CostConfig{}); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestCostsExecAndBest(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	ka := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	kb := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	g := b.MustBuild()
	c := mustCosts(t, g, env)

	cpu := firstOfKind(env.sys, platform.CPU)
	gpu := firstOfKind(env.sys, platform.GPU)
	fpga := firstOfKind(env.sys, platform.FPGA)

	if got := c.Exec(ka, cpu); got != 10 {
		t.Errorf("Exec(a,cpu) = %v, want 10", got)
	}
	if p, ms := c.BestProc(ka); p != gpu || ms != 2 {
		t.Errorf("BestProc(a) = %d/%v, want gpu/2", p, ms)
	}
	if p, ms := c.BestProc(kb); p != fpga || ms != 1 {
		t.Errorf("BestProc(b) = %d/%v, want fpga/1", p, ms)
	}
	if got := c.MeanExec(ka); math.Abs(got-(10+2+50)/3.0) > 1e-9 {
		t.Errorf("MeanExec(a) = %v", got)
	}
}

// TestPrepareCostsPastShapeCap crosses the shape map's key cap: kernels
// repeating a shape first seen before the cap share its row, those
// repeating one first seen after it get rows of their own, and every
// kernel still prices exactly as per-(kernel, processor) pricing does.
func TestPrepareCostsPastShapeCap(t *testing.T) {
	env := tiny(t, 4)
	const distinct = MaxMemoKeys + 5
	shape := func(i int) dfg.Kernel {
		name := "a"
		if i%3 == 0 {
			name = "b"
		}
		return dfg.Kernel{Name: name, DataElems: int64(500 + 7*i)}
	}
	b := dfg.NewBuilder()
	for i := 0; i < distinct; i++ {
		b.AddKernel(shape(i))
	}
	for i := 0; i < distinct; i += 2 { // repeat every other shape
		b.AddKernel(shape(i))
	}
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	repeatsPastCap := 0
	for i := MaxMemoKeys; i < distinct; i += 2 {
		repeatsPastCap++
	}
	if rows, want := len(c.best), distinct+repeatsPastCap; rows != want {
		t.Errorf("%d shape rows, want %d: %d distinct shapes plus one per repeat of a shape past the cap", rows, want, distinct)
	}
	wantExec, wantBest, wantMean, err := refCosts(g, env.sys, env.tab)
	if err != nil {
		t.Fatal(err)
	}
	for k := range wantExec {
		id := dfg.KernelID(k)
		for p, want := range wantExec[k] {
			if !sameBits(c.Exec(id, platform.ProcID(p)), want) {
				t.Fatalf("Exec(%d, %d) = %v, want %v", k, p, c.Exec(id, platform.ProcID(p)), want)
			}
		}
		if p, _ := c.BestProc(id); p != wantBest[k] || !sameBits(c.MeanExec(id), wantMean[k]) {
			t.Fatalf("kernel %d: BestProc %d, MeanExec %v; want %d, %v", k, p, c.MeanExec(id), wantBest[k], wantMean[k])
		}
	}
}

func TestTransferMs(t *testing.T) {
	env := tiny(t, 4) // 4 GB/s
	c := mustCosts(t, singleKernelGraph(t), env)
	if got := c.TransferMs(1000, 0, 0); got != 0 {
		t.Errorf("same-proc transfer = %v, want 0", got)
	}
	// 1e6 elems * 4 B = 4e6 B at 4e6 B/ms = 1 ms.
	if got := c.TransferMs(1_000_000, 0, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("transfer = %v, want 1", got)
	}
}

func TestTransferUnusableLink(t *testing.T) {
	b := platform.NewBuilder()
	p0 := b.AddProcessor(platform.CPU, "")
	p1 := b.AddProcessor(platform.GPU, "")
	sys := b.MustBuild() // no rates set: links are 0 GB/s
	tab := tiny(t, 4).tab
	gb := dfg.NewBuilder()
	gb.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	g := gb.MustBuild()
	c, err := PrepareCosts(g, sys, tab, CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TransferMs(1, p0, p1); got != unusableLinkMs {
		t.Errorf("unusable link priced %v, want %v", got, unusableLinkMs)
	}
}

func TestTransferInModes(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	// Two predecessors, each shipping 1e6 elements (1 ms each on 4 GB/s).
	p1 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1_000_000})
	p2 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1_000_000})
	k := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(p1, k).AddEdge(p2, k)
	g := b.MustBuild()

	cpu := platform.ProcID(0)
	gpu := platform.ProcID(1)
	fpga := platform.ProcID(2)
	placement := func(dfg.KernelID) platform.ProcID { return gpu } // both preds on GPU

	cMax, err := PrepareCosts(g, env.sys, env.tab, CostConfig{Mode: TransferMax})
	if err != nil {
		t.Fatal(err)
	}
	if got := cMax.TransferIn(k, cpu, placement); math.Abs(got-1) > 1e-9 {
		t.Errorf("max mode = %v, want 1", got)
	}
	cSum, err := PrepareCosts(g, env.sys, env.tab, CostConfig{Mode: TransferSum})
	if err != nil {
		t.Fatal(err)
	}
	if got := cSum.TransferIn(k, cpu, placement); math.Abs(got-2) > 1e-9 {
		t.Errorf("sum mode = %v, want 2", got)
	}
	// Predecessors co-located with the kernel cost nothing.
	onSame := func(dfg.KernelID) platform.ProcID { return cpu }
	if got := cMax.TransferIn(k, cpu, onSame); got != 0 {
		t.Errorf("co-located transfer = %v, want 0", got)
	}
	_ = fpga
}

func TestMeanTransfer(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	u := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1_000_000})
	v := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(u, v)
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	// 6 ordered distinct pairs, each 1 ms, averaged over 9 ordered pairs
	// (diagonal contributes 0): 6/9 ms.
	want := 6.0 / 9.0
	if got := c.MeanTransfer(u); math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanTransfer = %v, want %v", got, want)
	}
}

// directMean is MeanTransfer priced link by link: the sum of TransferMs
// over ordered pairs of distinct processors, in row-major order, over np².
func directMean(c *Costs, elems int64) float64 {
	np := c.System().NumProcs()
	if np <= 1 {
		return 0
	}
	var sum float64
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			if i != j {
				sum += c.TransferMs(elems, platform.ProcID(i), platform.ProcID(j))
			}
		}
	}
	return sum / float64(np*np)
}

// directTransferIn is TransferIn priced link by link with TransferMs,
// combining predecessors in order as the configured mode says.
func directTransferIn(c *Costs, k dfg.KernelID, p platform.ProcID, place func(dfg.KernelID) platform.ProcID) float64 {
	var in float64
	for _, pred := range c.Graph().Preds(k) {
		ms := c.TransferMs(c.Graph().Kernel(pred).OutElems, place(pred), p)
		if c.Config().Mode == TransferSum {
			in += ms
		} else if ms > in {
			in = ms
		}
	}
	return in
}

// TestMeanTransferTable pins MeanTransfer's memo: it equals the direct sum
// bit for bit for every kernel, the second time a size is asked for too,
// whether the size has transfer-table rows, is numbered but past the
// table's bound (one size per 3 of the 552 kernels on 3 processors, the
// 2¹⁶-entry budget's 3 sizes on 130), or lies past MaxMemoKeys sizes and
// is priced on every call. Four goroutines then ask
// a fresh Costs for every mean at once; under -race this is the memo's
// concurrency check.
func TestMeanTransferTable(t *testing.T) {
	env := tiny(t, 4)
	wide := platform.NewBuilder()
	for p := 0; p < 130; p++ {
		wide.AddProcessor([]platform.Kind{platform.CPU, platform.GPU, platform.FPGA}[p%3], "")
	}
	const sizes = MaxMemoKeys + 20
	b := dfg.NewBuilder()
	for round := 0; round < 2; round++ {
		for i := 0; i < sizes; i++ {
			b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000, OutElems: int64(1 + 997*i)})
		}
	}
	g := b.MustBuild()
	for _, tc := range []struct {
		sys  *platform.System
		rows int
	}{
		{env.sys, g.NumKernels() / 3},
		{wide.SetUniformRate(4).MustBuild(), 3},
	} {
		c, err := PrepareCosts(g, tc.sys, env.tab, CostConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if c.xferRows != tc.rows {
			t.Errorf("%d procs: transfer table holds %d sizes, want %d", tc.sys.NumProcs(), c.xferRows, tc.rows)
		}
		want := make([]float64, g.NumKernels())
		for k := range want {
			id := dfg.KernelID(k)
			want[k] = directMean(c, g.Kernel(id).OutElems)
			if got := c.MeanTransfer(id); !sameBits(got, want[k]) {
				t.Fatalf("%d procs, kernel %d (size %d): MeanTransfer %v, direct sum %v",
					tc.sys.NumProcs(), k, c.out[k], got, want[k])
			}
		}
		fresh, err := PrepareCosts(g, tc.sys, env.tab, CostConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range want {
					if got := fresh.MeanTransfer(dfg.KernelID(k)); !sameBits(got, want[k]) {
						t.Errorf("%d procs, concurrent: MeanTransfer(%d) = %v, direct sum %v", tc.sys.NumProcs(), k, got, want[k])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestTransferTableBound pins how many output sizes the transfer table
// holds: every size of the benchmark's graphs (the paper-sweep suite on 3
// processors, 10 or 11 sizes each; scale-10k's 11 on 8 processors), the
// 2¹⁶-entry budget's 3 on a 3000-kernel graph on 130 processors, and none
// for 41 kernels on 130 processors, which can read at most 41·130 entries
// and so prices every link directly instead of tabling 3·130².
func TestTransferTableBound(t *testing.T) {
	scale := func(n int, seed int64) *dfg.Graph {
		series, err := workload.ScaleSeries(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := workload.BuildScaleLayered(series, workload.DefaultScaleLayeredConfig(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	machine := func(np int) *platform.System {
		b := platform.NewBuilder()
		for p := 0; p < np; p++ {
			b.AddProcessor([]platform.Kind{platform.CPU, platform.GPU, platform.FPGA}[p%3], "")
		}
		return b.SetUniformRate(4).MustBuild()
	}
	rows := func(g *dfg.Graph, sys *platform.System) (tabled, sizes int) {
		c, err := PrepareCosts(g, sys, lut.Paper(), CostConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return c.xferRows, len(c.means)
	}
	// The paper-sweep graphs, by the benchmark's recipe for seed 7.
	counts := workload.ExperimentKernelCounts
	for ti, typ := range []workload.GraphType{workload.Type1, workload.Type2} {
		for i, n := range counts {
			seed := 7 + int64(ti*len(counts)+i)*1_000_003
			series := workload.PaperCatalog().RandomSeries(rand.New(rand.NewSource(seed)), n)
			g, err := workload.Build(typ, series)
			if err != nil {
				t.Fatal(err)
			}
			tabled, sizes := rows(g, platform.PaperSystem(4))
			if tabled != sizes || sizes < 10 || sizes > 11 {
				t.Errorf("%v, %d kernels: %d of %d sizes tabled, want all of 10 or 11", typ, n, tabled, sizes)
			}
		}
	}
	for _, tc := range []struct {
		name         string
		g            *dfg.Graph
		np           int
		tabled, size int
	}{
		{"scale-10k", scale(10_000, 7), 8, 11, 11},
		{"3000 kernels", scale(3000, 3), 130, 3, 11},
		{"41 kernels", scale(41, 7), 130, 0, 10},
	} {
		if tabled, sizes := rows(tc.g, machine(tc.np)); tabled != tc.tabled || sizes != tc.size {
			t.Errorf("%s on %d processors: %d of %d sizes tabled, want %d of %d", tc.name, tc.np, tabled, sizes, tc.tabled, tc.size)
		}
	}
}

func TestTransferModeString(t *testing.T) {
	if TransferMax.String() != "max" || TransferSum.String() != "sum" {
		t.Error("TransferMode.String wrong")
	}
}

func TestElemBytesScalesTransfers(t *testing.T) {
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	c8, err := PrepareCosts(g, env.sys, env.tab, CostConfig{ElemBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	c4, err := PrepareCosts(g, env.sys, env.tab, CostConfig{ElemBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	r8 := c8.TransferMs(1000, 0, 1)
	r4 := c4.TransferMs(1000, 0, 1)
	if math.Abs(r8-2*r4) > 1e-12 {
		t.Errorf("8-byte transfer %v should be 2x 4-byte %v", r8, r4)
	}
}
