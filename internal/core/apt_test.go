package core

import (
	"math"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

func paperCosts(t *testing.T, g *dfg.Graph, rate platform.GBps) *sim.Costs {
	t.Helper()
	c, err := sim.PrepareCosts(g, platform.PaperSystem(rate), lut.Paper(), sim.CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func run(t *testing.T, c *sim.Costs, pol sim.Policy) *sim.Result {
	t.Helper()
	res, err := sim.Run(c, pol, sim.Options{})
	if err != nil {
		t.Fatalf("%s: %v", pol.Name(), err)
	}
	if err := res.Validate(c.Graph(), c.System()); err != nil {
		t.Fatalf("%s invalid: %v", pol.Name(), err)
	}
	return res
}

// figure5Graph reproduces the workload of the thesis's Figure 5 example:
// one nw, three bfs, one cd (250000 elements), all independent (transfers
// play no role because there are no dependencies).
func figure5Graph(t *testing.T) *dfg.Graph {
	t.Helper()
	b := dfg.NewBuilder()
	b.AddKernel(dfg.Kernel{Name: lut.NW, DataElems: 16777216}) // 0-nw
	b.AddKernel(dfg.Kernel{Name: lut.BFS, DataElems: 2034736}) // 1-bfs
	b.AddKernel(dfg.Kernel{Name: lut.BFS, DataElems: 2034736}) // 2-bfs
	b.AddKernel(dfg.Kernel{Name: lut.BFS, DataElems: 2034736}) // 3-bfs
	b.AddKernel(dfg.Kernel{Name: lut.CD, DataElems: 250000})   // 4-cd
	return b.MustBuild()
}

// TestFigure5Golden replays the thesis's worked example exactly: MET ends
// at 318.093 ms (all bfs and cd serialize on the FPGA), APT with α=8 ends
// at 212.093 ms (one bfs overflows to the GPU because 173 <= 8·106).
func TestFigure5Golden(t *testing.T) {
	g := figure5Graph(t)

	met := run(t, paperCosts(t, g, 4), policy.NewMET(1))
	if math.Abs(met.MakespanMs-318.093) > 1e-6 {
		t.Errorf("MET makespan = %v, want 318.093 (paper Figure 5)", met.MakespanMs)
	}

	apt := New(8)
	res := run(t, paperCosts(t, g, 4), apt)
	if math.Abs(res.MakespanMs-212.093) > 1e-6 {
		t.Errorf("APT(α=8) makespan = %v, want 212.093 (paper Figure 5)", res.MakespanMs)
	}
	// Exactly one bfs took the alternative (GPU) path.
	st := apt.Stats()
	if st.AltAssignments != 1 || st.ByKernel[lut.BFS] != 1 {
		t.Errorf("alt stats = %+v, want exactly one bfs alternative", st)
	}
	// The schedule: kernel 2 (second bfs) runs on the GPU.
	pl := res.Placements[2]
	if got := res.Placements[2]; platform.PaperSystem(4).KindOf(got.Proc) != platform.GPU {
		t.Errorf("bfs#2 ran on proc %d, want the GPU", pl.Proc)
	}
}

func TestAlphaValidation(t *testing.T) {
	g := figure5Graph(t)
	c := paperCosts(t, g, 4)
	if _, err := sim.Run(c, New(0.5), sim.Options{}); err == nil {
		t.Error("α < 1 accepted")
	}
	// α = 0 selects the default.
	a := New(0)
	if _, err := sim.Run(c, a, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if a.Alpha != DefaultAlpha {
		t.Errorf("Alpha defaulted to %v, want %v", a.Alpha, DefaultAlpha)
	}
}

// With α = 1 the threshold admits only processors that tie pmin exactly,
// so APT degenerates to MET's rule: every kernel runs on a processor whose
// execution time equals the minimum.
func TestAlphaOneDegeneratesToMET(t *testing.T) {
	for _, typ := range []workload.GraphType{workload.Type1, workload.Type2} {
		g := workload.MustSuite(typ, workload.DefaultSuiteSeed)[0]
		c := paperCosts(t, g, 4)
		res := run(t, c, New(1))
		for i := range res.Placements {
			k := dfg.KernelID(i)
			_, best := c.BestProc(k)
			got := c.Exec(k, res.Placements[i].Proc)
			// An alternative within threshold α=1 must cost exactly best
			// (transfer included), so exec alone cannot exceed best.
			if got > best+1e-9 {
				t.Errorf("%v kernel %d ran at %v ms, best is %v (α=1 must not settle for worse)",
					typ, i, got, best)
			}
		}
	}
}

// APT must never assign a kernel to a processor whose exec+transfer
// exceeds α times its best execution time.
func TestThresholdRespected(t *testing.T) {
	for _, alpha := range []float64{1.5, 2, 4, 8, 16} {
		for _, typ := range []workload.GraphType{workload.Type1, workload.Type2} {
			g := workload.MustSuite(typ, workload.DefaultSuiteSeed)[2]
			c := paperCosts(t, g, 4)
			res := run(t, c, New(alpha))
			for i := range res.Placements {
				k := dfg.KernelID(i)
				pmin, best := c.BestProc(k)
				pl := res.Placements[i]
				if pl.Proc == pmin {
					continue
				}
				// exec alone is a lower bound on the cost APT accepted.
				if c.Exec(k, pl.Proc) > alpha*best+1e-9 {
					t.Errorf("α=%v %v kernel %d on proc %d costs %v > threshold %v",
						alpha, typ, i, pl.Proc, c.Exec(k, pl.Proc), alpha*best)
				}
			}
		}
	}
}

// Small α must reproduce MET's makespan on the paper workloads (the
// paper's Tables 8 and 9 show identical APT/MET columns at α=1.5 for
// almost every graph).
func TestSmallAlphaMimicsMET(t *testing.T) {
	same := 0
	graphs := workload.MustSuite(workload.Type1, workload.DefaultSuiteSeed)
	for _, g := range graphs {
		apt := run(t, paperCosts(t, g, 4), New(1.5))
		met := run(t, paperCosts(t, g, 4), policy.NewMET(1))
		if math.Abs(apt.MakespanMs-met.MakespanMs)/met.MakespanMs < 0.02 {
			same++
		}
	}
	if same < 7 {
		t.Errorf("APT(1.5) matched MET within 2%% on only %d/10 graphs", same)
	}
}

// The headline claim: at the paper's thresholdbrk (α=4) APT beats MET on
// average across the suite, on both workload families.
func TestAPTBeatsMETAtAlpha4(t *testing.T) {
	for _, typ := range []workload.GraphType{workload.Type1, workload.Type2} {
		var aptTotal, metTotal float64
		for _, g := range workload.MustSuite(typ, workload.DefaultSuiteSeed) {
			aptTotal += run(t, paperCosts(t, g, 4), New(4)).MakespanMs
			metTotal += run(t, paperCosts(t, g, 4), policy.NewMET(1)).MakespanMs
		}
		if aptTotal >= metTotal {
			t.Errorf("%v: APT(α=4) total %v not better than MET %v", typ, aptTotal, metTotal)
		}
		t.Logf("%v: APT(α=4) avg %.0f ms vs MET %.0f ms (%.1f%% better)",
			typ, aptTotal/10, metTotal/10, (metTotal-aptTotal)/metTotal*100)
	}
}

func TestStatsIsolatedPerRun(t *testing.T) {
	g := figure5Graph(t)
	a := New(8)
	run(t, paperCosts(t, g, 4), a)
	first := a.Stats()
	run(t, paperCosts(t, g, 4), a) // Prepare resets stats
	second := a.Stats()
	if first.AltAssignments != second.AltAssignments {
		t.Errorf("stats leaked across runs: %d vs %d", first.AltAssignments, second.AltAssignments)
	}
	// Mutating the returned map must not corrupt internal state.
	s := a.Stats()
	s.ByKernel["bogus"] = 99
	if a.Stats().ByKernel["bogus"] != 0 {
		t.Error("Stats returned aliased map")
	}
}

func TestAPTRName(t *testing.T) {
	if New(4).Name() != "APT" || NewR(4).Name() != "APT-R" {
		t.Error("names wrong")
	}
}

// APT-R should never do worse than plain APT by more than noise on the
// Figure-5 style workload where waiting is sometimes better: specifically,
// with a huge α plain APT makes harmful alternative assignments that APT-R
// avoids by comparing against pmin's remaining time.
func TestAPTRAvoidsHarmfulAlternatives(t *testing.T) {
	// Workload: two cd kernels (FPGA 0.093ms; CPU 17.064; GPU 2.749).
	// Plain APT with α large: second cd goes to GPU (2.749ms) though
	// waiting 0.093 for the FPGA then executing 0.093 would finish at
	// 0.186ms. APT-R waits.
	b := dfg.NewBuilder()
	b.AddKernel(dfg.Kernel{Name: lut.CD, DataElems: 250000})
	b.AddKernel(dfg.Kernel{Name: lut.CD, DataElems: 250000})
	g := b.MustBuild()

	plain := run(t, paperCosts(t, g, 4), New(100))
	rvar := run(t, paperCosts(t, g, 4), NewR(100))
	if rvar.MakespanMs > plain.MakespanMs+1e-9 {
		t.Errorf("APT-R (%v) worse than APT (%v)", rvar.MakespanMs, plain.MakespanMs)
	}
	if math.Abs(rvar.MakespanMs-0.186) > 1e-6 {
		t.Errorf("APT-R makespan = %v, want 0.186 (wait for FPGA)", rvar.MakespanMs)
	}
	if math.Abs(plain.MakespanMs-2.749) > 1e-6 {
		t.Errorf("plain APT makespan = %v, want 2.749 (harmful GPU alternative)", plain.MakespanMs)
	}
}

// The valley: makespan averaged over the Type-1 suite should dip at an
// intermediate α compared with both a tiny and a huge α.
func TestValleyShape(t *testing.T) {
	avg := func(alpha float64) float64 {
		var total float64
		graphs := workload.MustSuite(workload.Type1, workload.DefaultSuiteSeed)
		for _, g := range graphs {
			total += run(t, paperCosts(t, g, 4), New(alpha)).MakespanMs
		}
		return total / float64(len(graphs))
	}
	small, mid, huge := avg(1.001), avg(4), avg(1e6)
	if mid >= small {
		t.Errorf("no benefit at α=4: avg %v vs α≈1 %v", mid, small)
	}
	if mid >= huge {
		t.Errorf("unbounded flexibility (α=1e6, avg %v) should not beat tuned α=4 (avg %v)", huge, mid)
	}
	t.Logf("valley: α≈1 %.0f, α=4 %.0f, α=1e6 %.0f", small, mid, huge)
}
