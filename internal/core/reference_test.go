package core

import (
	"maps"
	"math/rand"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/perturb"
	"repro/internal/platform"
	"repro/internal/rule"
	"repro/internal/sim"
	"repro/internal/workload"
)

// referenceAPT is APT without the admitted-set cache and the waiting
// lists: every call walks the whole ready list, and every visit to a
// kernel whose pmin is busy offers every free processor to rule.Alt,
// priced afresh through TransferIn. It shares APT's Prepare, Stats and
// APT-R test, so the two differ only in how Select finds the kernel and
// the alternative. It counts the placements that follow an APT-R decline
// within the same call.
type referenceAPT struct {
	APT
	placedAfterDecline int
}

func (r *referenceAPT) Select(st *sim.State) []sim.Assignment {
	avail := make([]bool, st.System().NumProcs())
	nAvail := 0
	for p := range avail {
		if st.Available(platform.ProcID(p)) {
			avail[p] = true
			nAvail++
		}
	}
	var out []sim.Assignment
	declined := false
	for _, k := range st.AppendReady(nil) {
		if nAvail == 0 {
			break
		}
		pmin, x := r.c.BestProc(k)
		p := pmin
		if !avail[pmin] {
			alt := rule.NewAlt(r.Alpha, x, int(pmin))
			for q, free := range avail {
				if free {
					alt.Offer(q, r.c.Exec(k, platform.ProcID(q))+r.transferTo(st, k, platform.ProcID(q)))
				}
			}
			palt, cost, ok := alt.Best()
			if !ok {
				continue
			}
			if r.ConsiderRemaining && r.waitingWins(st, k, pmin, x, cost) {
				declined = true
				continue
			}
			p = platform.ProcID(palt)
			r.stats.AltAssignments++
			r.stats.ByKernel[st.Graph().Kernel(k).Name]++
		}
		avail[p] = false
		nAvail--
		r.stats.Assignments++
		if declined {
			r.placedAfterDecline++
		}
		out = append(out, sim.Assignment{Kernel: k, Proc: p})
	}
	return out
}

// listProbe wraps the APT under test and counts, from its cursor and the
// ready log, the two situations the waiting lists exist for: a call that
// returns with ready kernels it never visited, which a later call then
// visits, and a kernel visited by an earlier call placed from the lists
// on a processor other than its pmin.
type listProbe struct {
	*APT
	pos                 []int // log position by kernel
	logged, unvisitedAt int   // positions indexed; next left unvisited, or -1
	resumed, listAlts   int
}

func (l *listProbe) Prepare(c *sim.Costs) error {
	l.pos = make([]int, c.Graph().NumKernels())
	l.logged, l.unvisitedAt = 0, -1
	return l.APT.Prepare(c)
}

func (l *listProbe) Select(st *sim.State) []sim.Assignment {
	log := st.ReadyLog()
	for ; l.logged < len(log); l.logged++ {
		l.pos[log[l.logged]] = l.logged
	}
	visited := l.next
	out := l.APT.Select(st)
	for _, a := range out {
		if pmin, _ := l.c.BestProc(a.Kernel); l.pos[a.Kernel] < visited && a.Proc != pmin {
			l.listAlts++
		}
	}
	if l.unvisitedAt >= 0 && l.next > l.unvisitedAt {
		l.resumed++
	}
	l.unvisitedAt = -1
	if l.next < len(log) {
		l.unvisitedAt = l.next
	}
	return out
}

// referenceCase is one fuzz input. The bytes decode as:
//
//   - kernels: 1 + kernels%400 kernels in the first graph; the second
//     graph, run on the same APT instance, has about half as many;
//   - shape: even is a 32-layer fan-in-3 layered DAG, odd a fork-join
//     mesh of width 2 + shape/2%64; the second graph takes the other shape;
//   - procs: that many processors (at least 1) cycling CPU, GPU, FPGA, as
//     apt.ScaleMachine builds them, at 0.5, 4 or 32 GB/s by seed;
//   - alpha: α = 1 + alpha/16;
//   - flags: bit 0 APT-R, bit 1 TransferSum, bit 2 Poisson arrivals,
//     bit 3 actual costs from a uniformly perturbed table.
type referenceCase struct {
	seed                       int64
	kernels                    uint16
	shape, procs, alpha, flags uint8
}

// referenceCases covers both shapes at every α in {1, 1.5, 4, 16}, rows of
// one, two and three words (3, 8, 64, 65 and 130 processors) and every
// combination of the four flags.
func referenceCases() []referenceCase {
	procs := []uint8{3, 8, 64, 65, 130}
	alphas := []uint8{0, 8, 48, 240}
	var cs []referenceCase
	for i := range 20 {
		cs = append(cs, referenceCase{
			seed:    int64(i + 1),
			kernels: uint16(150 + 13*i),
			shape:   uint8(i%2 + 2*i),
			procs:   procs[i%5],
			alpha:   alphas[i/2%4],
			flags:   uint8(i % 16),
		})
	}
	return cs
}

// FuzzAPTMatchesReference requires the cached APT to place every kernel
// where referenceAPT does, at the same times, with the same AltStats. One
// APT instance runs two different graphs in turn, as RunBatch's policy
// memo reuses instances, so a row that survived Prepare shows up as a
// wrong placement in the second run. The seeds run under plain go test.
func FuzzAPTMatchesReference(f *testing.F) {
	for _, c := range referenceCases() {
		f.Add(c.seed, c.kernels, c.shape, c.procs, c.alpha, c.flags)
	}
	f.Fuzz(func(t *testing.T, seed int64, kernels uint16, shape, procs, alpha, flags uint8) {
		checkReference(t, referenceCase{seed, kernels, shape, procs, alpha, flags})
	})
}

// TestAPTMatchesReference runs the fuzz seeds and checks that together they
// exercise what the cache and the waiting lists could get wrong:
// alternatives, APT-R declining one, rows of more than one word, a call
// resuming the log where an earlier one stopped, an alternative placed
// from the lists, and a placement after an APT-R decline in the same call.
func TestAPTMatchesReference(t *testing.T) {
	var total coverage
	wide := 0
	for _, c := range referenceCases() {
		got := checkReference(t, c)
		total.add(got)
		if c.procs > 64 && got.alts > 0 {
			wide++
		}
	}
	if total.alts == 0 || total.declines == 0 || wide == 0 ||
		total.resumed == 0 || total.listAlts == 0 || total.placedAfterDecline == 0 {
		t.Fatalf("weak seeds: %+v, %d multi-word cases with alternatives", total, wide)
	}
	t.Logf("seeds exercised %+v, %d multi-word cases with alternatives", total, wide)
}

// coverage is what one reference case exercised.
type coverage struct {
	// alts counts alternative placements, and declines the APT-R runs that
	// placed fewer alternatives than plain APT does on the same inputs.
	alts, declines int
	// resumed counts calls that visited log entries an earlier call left
	// unvisited; listAlts the waiting kernels placed from the lists on a
	// processor other than pmin; placedAfterDecline the placements after
	// an APT-R decline within the same call.
	resumed, listAlts, placedAfterDecline int
}

func (c *coverage) add(o coverage) {
	c.alts += o.alts
	c.declines += o.declines
	c.resumed += o.resumed
	c.listAlts += o.listAlts
	c.placedAfterDecline += o.placedAfterDecline
}

// checkReference runs one case and returns what it exercised.
func checkReference(t *testing.T, c referenceCase) coverage {
	t.Helper()
	alpha := 1 + float64(c.alpha)/16
	sys := referenceSystem(t, max(1, int(c.procs)), []platform.GBps{0.5, 4, 32}[uint64(c.seed)%3])
	n := 1 + int(c.kernels)%400
	shared := &APT{Alpha: alpha, ConsiderRemaining: c.flags&1 != 0}
	probe := &listProbe{APT: shared}
	var cov coverage
	for run, g := range []*dfg.Graph{
		referenceGraph(t, n, c.shape, c.seed),
		referenceGraph(t, 1+n/2, c.shape+1, c.seed+1),
	} {
		costs, opt := referenceInputs(t, g, sys, c)
		ref := &referenceAPT{APT: APT{Alpha: alpha, ConsiderRemaining: shared.ConsiderRemaining}}
		want := runReference(t, costs, ref, opt)
		got := runReference(t, costs, probe, opt)
		for k := range want.Placements {
			if got.Placements[k] != want.Placements[k] {
				t.Fatalf("%+v run %d: kernel %d placed %+v, reference %+v",
					c, run, k, got.Placements[k], want.Placements[k])
			}
		}
		gs, ws := shared.Stats(), ref.Stats()
		if gs.Assignments != ws.Assignments || gs.AltAssignments != ws.AltAssignments ||
			!maps.Equal(gs.ByKernel, ws.ByKernel) {
			t.Fatalf("%+v run %d: stats %+v, reference %+v", c, run, gs, ws)
		}
		cov.alts += gs.AltAssignments
		cov.placedAfterDecline += ref.placedAfterDecline
		if shared.ConsiderRemaining {
			plain := &APT{Alpha: alpha}
			runReference(t, costs, plain, opt)
			if plain.Stats().AltAssignments > gs.AltAssignments {
				cov.declines++
			}
		}
	}
	cov.resumed, cov.listAlts = probe.resumed, probe.listAlts
	return cov
}

func runReference(t *testing.T, c *sim.Costs, pol sim.Policy, opt sim.Options) *sim.Result {
	t.Helper()
	res, err := sim.Run(c, pol, opt)
	if err != nil {
		t.Fatalf("%s: %v", pol.Name(), err)
	}
	return res
}

func referenceSystem(t *testing.T, procs int, rate platform.GBps) *platform.System {
	t.Helper()
	kinds := []platform.Kind{platform.CPU, platform.GPU, platform.FPGA}
	b := platform.NewBuilder()
	for i := range procs {
		b.AddProcessor(kinds[i%len(kinds)], "")
	}
	b.SetUniformRate(rate)
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func referenceGraph(t *testing.T, n int, shape uint8, seed int64) *dfg.Graph {
	t.Helper()
	series, err := workload.ScaleSeries(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	var g *dfg.Graph
	if shape%2 == 0 {
		g, err = workload.BuildScaleLayered(series, workload.DefaultScaleLayeredConfig(), rand.New(rand.NewSource(seed)))
	} else {
		g, err = workload.BuildForkJoin(series, workload.ForkJoinConfig{Width: 2 + int(shape/2%64)})
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// referenceInputs prepares the estimate oracle and the run options the
// case's flags ask for.
func referenceInputs(t *testing.T, g *dfg.Graph, sys *platform.System, c referenceCase) (*sim.Costs, sim.Options) {
	t.Helper()
	cfg := sim.CostConfig{}
	if c.flags&2 != 0 {
		cfg.Mode = sim.TransferSum
	}
	costs, err := sim.PrepareCosts(g, sys, lut.Paper(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var opt sim.Options
	if c.flags&4 != 0 {
		if opt.ArrivalTimes, err = workload.PoissonArrivals(g, 2, c.seed); err != nil {
			t.Fatal(err)
		}
	}
	if c.flags&8 != 0 {
		tab, err := perturb.Noise{Frac: 0.4, Seed: c.seed}.Apply(lut.Paper())
		if err != nil {
			t.Fatal(err)
		}
		if opt.ActualCosts, err = sim.PrepareCosts(g, sys, tab, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return costs, opt
}
