package apt

import (
	"math"
	"strings"
	"testing"
)

func TestPaperMachine(t *testing.T) {
	m := PaperMachine(4)
	if m.NumProcs() != 3 {
		t.Fatalf("NumProcs = %d, want 3", m.NumProcs())
	}
	for _, name := range []string{"CPU0", "GPU0", "FPGA0"} {
		if !strings.Contains(m.String(), name) {
			t.Errorf("String = %q, want %s", m.String(), name)
		}
	}
}

func TestMachineBuilder(t *testing.T) {
	mb := NewMachine()
	c := mb.AddProc(CPU, "")
	g := mb.AddProc(GPU, "big-gpu")
	mb.UniformRate(4).LinkRate(c, g, 16)
	m, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.NumProcs() != 2 {
		t.Errorf("NumProcs = %d", m.NumProcs())
	}
	if _, err := NewMachine().Build(); err == nil {
		t.Error("empty machine accepted")
	}
}

func TestGenerateWorkload(t *testing.T) {
	w, err := GenerateWorkload(Type1, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumKernels() != 30 {
		t.Errorf("kernels = %d, want 30", w.NumKernels())
	}
	if w.NumDeps() != 29 {
		t.Errorf("deps = %d, want 29 (Type-1 fan-in)", w.NumDeps())
	}
	if _, err := GenerateWorkload(Type1, 0, 7); err == nil {
		t.Error("zero-size workload accepted")
	}
	if _, err := GenerateWorkload(Type2, 3, 7); err == nil {
		t.Error("undersized Type-2 accepted")
	}
}

func TestWorkloadBuilder(t *testing.T) {
	wb := NewWorkload()
	a := wb.AddKernel("nw", 16777216)
	b := wb.AddKernel("bfs", 2034736)
	wb.AddDep(a, b)
	w, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if w.NumKernels() != 2 || w.NumDeps() != 1 {
		t.Errorf("shape = %d/%d", w.NumKernels(), w.NumDeps())
	}
	// Unknown kernels surface at Run time (lookup table validation).
	wb2 := NewWorkload()
	wb2.AddKernel("mystery", 10)
	w2, err := wb2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w2, PaperMachine(4), APT(4), nil); err == nil {
		t.Error("unknown kernel accepted at Run")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := ParsePolicy(name, 4, 1)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
		}
		if p.Name() == "" {
			t.Errorf("policy %q has empty name", name)
		}
	}
	if _, err := ParsePolicy("bogus", 4, 1); err == nil {
		t.Error("unknown policy accepted")
	}
	if p, _ := ParsePolicy("APT-R", 2, 0); p.Name() != "APT-R" {
		t.Errorf("case-insensitive parse failed: %q", p.Name())
	}
}

func TestRunFigure5(t *testing.T) {
	// The thesis's Figure 5 example through the public API.
	wb := NewWorkload()
	wb.AddKernel("nw", 16777216)
	wb.AddKernel("bfs", 2034736)
	wb.AddKernel("bfs", 2034736)
	wb.AddKernel("bfs", 2034736)
	wb.AddKernel("cd", 250000)
	w, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := PaperMachine(4)

	met, err := Run(w, m, MET(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(met.MakespanMs-318.093) > 1e-6 {
		t.Errorf("MET makespan = %v, want 318.093", met.MakespanMs)
	}
	res, err := Run(w, m, APT(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MakespanMs-212.093) > 1e-6 {
		t.Errorf("APT makespan = %v, want 212.093", res.MakespanMs)
	}
	if res.Alt.AltAssignments != 1 || res.Alt.ByKernel["bfs"] != 1 {
		t.Errorf("alt stats = %+v", res.Alt)
	}
	if kernels := res.Kernels(); len(kernels) != 5 || len(res.res.ProcStats) != 3 {
		t.Errorf("result shape = %d kernels %d procs", len(kernels), len(res.res.ProcStats))
	}
	if !strings.Contains(res.Gantt(), "start 0-nw") {
		t.Error("Gantt missing events")
	}
	if !strings.Contains(res.Utilisation(), "GPU0") {
		t.Error("Utilisation missing processor")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, PaperMachine(4), APT(4), nil); err == nil {
		t.Error("nil workload accepted")
	}
	w, _ := GenerateWorkload(Type1, 5, 1)
	if _, err := Run(w, nil, APT(4), nil); err == nil {
		t.Error("nil machine accepted")
	}
	if _, err := Run(w, PaperMachine(4), APT(0.5), nil); err == nil {
		t.Error("bad alpha accepted")
	}
}

func TestRunOptions(t *testing.T) {
	w, _ := GenerateWorkload(Type2, 20, 3)
	m := PaperMachine(4)
	base, err := Run(w, m, APT(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	over, err := Run(w, m, APT(4), &Options{SchedOverheadMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if over.MakespanMs <= base.MakespanMs {
		t.Errorf("scheduler overhead did not increase makespan: %v vs %v",
			over.MakespanMs, base.MakespanMs)
	}
}

func TestCompare(t *testing.T) {
	w, _ := GenerateWorkload(Type1, 25, 11)
	m := PaperMachine(4)
	pols := []Policy{APT(4), MET(1), SPN(), SS(), AG(), HEFT(), PEFT()}
	results, err := Compare(w, m, pols)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pols) {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Policy != pols[i].Name() {
			t.Errorf("result %d policy %q, want %q", i, r.Policy, pols[i].Name())
		}
		if r.MakespanMs <= 0 {
			t.Errorf("%s makespan %v", r.Policy, r.MakespanMs)
		}
	}
}
