package policy

import (
	"math"
	"testing"

	"repro/internal/dfg"
)

// Hand-computed rank verification on the two-kernel chain a -> b with the
// tiny table (a: CPU 10 / GPU 2 / FPGA 50; b: CPU 4 / GPU 8 / FPGA 1),
// 4 GB/s links, 4 bytes/element, 1000-element output:
//
//	transfer(a->b across procs) = 1000·4 B / 4e6 B/ms = 0.001 ms
//	c̄(a) = 6 ordered distinct pairs · 0.001 / 9 = 0.0006667 ms
//	w̄(a) = 62/3, w̄(b) = 13/3
//	rank_u(b) = 13/3
//	rank_u(a) = 62/3 + c̄ + 13/3 = 25 + 0.0006667
func TestHEFTRankUHandComputed(t *testing.T) {
	e := newEnv(t)
	b := dfg.NewBuilder()
	ka := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	kb := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(ka, kb)
	g := b.MustBuild()
	c := e.costs(t, g)
	h := NewHEFT()
	if err := h.Prepare(c); err != nil {
		t.Fatal(err)
	}
	cbar := 6.0 * 0.001 / 9.0
	wantB := 13.0 / 3
	wantA := 62.0/3 + cbar + wantB
	if math.Abs(h.RankU[kb]-wantB) > 1e-9 {
		t.Errorf("rank_u(b) = %v, want %v", h.RankU[kb], wantB)
	}
	if math.Abs(h.RankU[ka]-wantA) > 1e-9 {
		t.Errorf("rank_u(a) = %v, want %v", h.RankU[ka], wantA)
	}
}

// Hand-computed OCT on the same chain (Eq. 6):
//
//	OCT(b, p) = 0 for every p (exit task)
//	OCT(a, pk) = min over pw of (w(b,pw) + c̄ if pw != pk)
//	  OCT(a, CPU)  = min(4, 8+c̄, 1+c̄) = 1 + c̄
//	  OCT(a, GPU)  = min(4+c̄, 8, 1+c̄) = 1 + c̄
//	  OCT(a, FPGA) = min(4+c̄, 8+c̄, 1) = 1
//	rank_oct(a) = (2·(1+c̄) + 1)/3
func TestPEFTOCTHandComputed(t *testing.T) {
	e := newEnv(t)
	b := dfg.NewBuilder()
	ka := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	kb := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(ka, kb)
	g := b.MustBuild()
	c := e.costs(t, g)
	pf := NewPEFT()
	if err := pf.Prepare(c); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if pf.OCT[kb][p] != 0 {
			t.Errorf("OCT(b,%d) = %v, want 0", p, pf.OCT[kb][p])
		}
	}
	cbar := 6.0 * 0.001 / 9.0
	want := []float64{1 + cbar, 1 + cbar, 1} // CPU, GPU, FPGA
	for p, w := range want {
		if math.Abs(pf.OCT[ka][p]-w) > 1e-9 {
			t.Errorf("OCT(a,%d) = %v, want %v", p, pf.OCT[ka][p], w)
		}
	}
	wantRank := (2*(1+cbar) + 1) / 3
	if math.Abs(pf.RankOCT[ka]-wantRank) > 1e-9 {
		t.Errorf("rank_oct(a) = %v, want %v", pf.RankOCT[ka], wantRank)
	}
}

// The thesis-flavoured HEFT booking rule, traced by hand on three
// independent "a" kernels (CPU 10, GPU 2, FPGA 50):
//
//	k0: booked (0,0,0)   -> min(10, 2, 50)       -> GPU  (booked 2)
//	k1: booked (0,2,0)   -> min(10, 4, 50)       -> GPU  (booked 4)
//	k2: booked (0,4,0)   -> min(10, 6, 50)       -> GPU  (booked 6)
//
// so everything piles on the GPU for a 6 ms plan.
func TestHEFTThesisRuleHandTraced(t *testing.T) {
	e := newEnv(t)
	b := dfg.NewBuilder()
	for i := 0; i < 3; i++ {
		b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	}
	g := b.MustBuild()
	res := e.run(t, g, NewHEFT())
	if res.MakespanMs != 6 {
		t.Errorf("makespan = %v, want 6", res.MakespanMs)
	}
	for i := range res.Placements {
		if e.sys.KindOf(res.Placements[i].Proc) != "GPU" {
			t.Errorf("kernel %d not on GPU", i)
		}
	}
	// The textbook variant makes the same choice here (EFT also favours
	// stacking a 2ms GPU queue over a 10ms CPU run until the queue passes
	// 8ms), so both flavors agree on this workload.
	tb := e.run(t, g, &HEFT{Textbook: true})
	if tb.MakespanMs != 6 {
		t.Errorf("textbook makespan = %v, want 6", tb.MakespanMs)
	}
}
