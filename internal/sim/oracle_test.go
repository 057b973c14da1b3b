package sim

import (
	"fmt"
	"math"
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
// low ID -> high ID — always acyclic, often disconnected. Shapes repeat;
// when the second byte's top bit is set, one kernel is named "zz", which
// the table lacks.
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
func fuzzTable(tb testing.TB) *lut.Table {
	tb.Helper()
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
		tb.Fatal(err)
	}
	return tab
}

// fuzzMachines are the systems the costs oracle runs on: the paper's three
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
// asymmetric links. Its transfer table could hold 3 output sizes, but a
// graph tables at most one size per 130 kernels, so fuzzDAG's sizes are
// all priced link by link.
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

// sameBits reports whether two float64s are the same value bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// costsOracleSeeds is FuzzCostsOracle's seed corpus.
// TestCostsOracleSeedsMixTables checks that it keeps covering a cost table
// that tables some output sizes and prices the rest link by link.
var costsOracleSeeds = [][]byte{
	{5, 0},
	{11, 1, 0, 1, 1, 2, 0, 2, 5, 9},
	{39, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200, 100},
	{20, 0x93, 0, 5, 5, 9},
	{33, 0x47, 3, 4, 4, 30, 1, 2},
	{39, 0x31, 0, 1, 1, 2, 2, 38, 5, 9, 9, 20},
}

// FuzzCostsOracle is the shape-table and transfer-table oracle: for
// arbitrary DAGs on every fuzz machine, PrepareCosts must return exactly
// what per-(kernel, processor) pricing does — Exec, ExecRow, BestProc and
// MeanExec bit for bit, or the same error string — and exactly what
// per-link pricing does for TransferIn, TransferRow and MeanTransfer under
// both transfer modes, and Validate must accept a greedy run over the
// table. The transfer checks also run on fuzzWideMachine, where no
// fuzzDAG is large enough to table a size.
func FuzzCostsOracle(f *testing.F) {
	for _, seed := range costsOracleSeeds {
		f.Add(seed)
	}
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
			c, err := PrepareCosts(g, sys, tab, CostConfig{})
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("machine %d: error %v, per-kernel pricing gives %v", mi, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("machine %d: PrepareCosts: %v", mi, err)
			}
			for k := range wantExec {
				id := dfg.KernelID(k)
				row := c.ExecRow(id)
				for p, want := range wantExec[k] {
					if !sameBits(row[p], want) || !sameBits(c.Exec(id, platform.ProcID(p)), want) {
						t.Fatalf("machine %d: exec[%d][%d] = %v/%v, want %v",
							mi, k, p, row[p], c.Exec(id, platform.ProcID(p)), want)
					}
				}
				bp, bms := c.BestProc(id)
				if bp != wantBest[k] || !sameBits(bms, wantExec[k][wantBest[k]]) {
					t.Fatalf("machine %d: BestProc(%d) = %d/%v, want %d", mi, k, bp, bms, wantBest[k])
				}
				if !sameBits(c.MeanExec(id), wantMean[k]) {
					t.Fatalf("machine %d: MeanExec(%d) = %v, want %v", mi, k, c.MeanExec(id), wantMean[k])
				}
			}
			sum, err := PrepareCosts(g, sys, tab, CostConfig{Mode: TransferSum})
			if err != nil {
				t.Fatalf("machine %d: TransferSum costs: %v", mi, err)
			}
			checkTransfers(t, fmt.Sprintf("machine %d", mi), c)
			checkTransfers(t, fmt.Sprintf("machine %d, TransferSum", mi), sum)
			checkGreedyRun(t, fmt.Sprintf("machine %d", mi), c)
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

// checkGreedyRun runs greedy over c and requires Validate to accept the
// schedule. A run the engine refuses (greedy may route a transfer over a
// missing link) is skipped.
func checkGreedyRun(t *testing.T, what string, c *Costs) {
	t.Helper()
	res, err := Run(c, &greedy{}, Options{})
	if err != nil {
		return
	}
	if err := res.Validate(c.Graph(), c.System()); err != nil {
		t.Fatalf("%s: greedy schedule rejected: %v", what, err)
	}
}

// TestCostsOracleSeedsMixTables fails unless FuzzCostsOracle's seeds
// produce a cost table holding both tabled and per-link output sizes, so
// the transfer checks compare both paths with per-link pricing within one
// Costs.
func TestCostsOracleSeedsMixTables(t *testing.T) {
	tab := fuzzTable(t)
	for _, seed := range costsOracleSeeds {
		g := fuzzDAG(seed)
		for _, sys := range append(fuzzMachines(), fuzzWideMachine()) {
			c, err := PrepareCosts(g, sys, tab, CostConfig{})
			if err == nil && c.xferRows > 0 && c.xferRows < len(c.means) {
				t.Logf("seed %v on %d processors tables %d of %d sizes", seed, sys.NumProcs(), c.xferRows, len(c.means))
				return
			}
		}
	}
	t.Error("no seed gives a cost table with both tabled and per-link output sizes")
}
