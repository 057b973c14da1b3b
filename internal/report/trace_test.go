package report

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/sim"
)

func TestChromeTraceWellFormed(t *testing.T) {
	b := dfg.NewBuilder()
	a := b.AddKernel(dfg.Kernel{Name: lut.NW, DataElems: 16777216})
	c := b.AddKernel(dfg.Kernel{Name: lut.BFS, DataElems: 2034736})
	b.AddEdge(a, c)
	g := b.MustBuild()
	sys := platform.PaperSystem(4)
	costs, err := sim.PrepareCosts(g, sys, lut.Paper(), sim.CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(costs, assignAll{}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, res, g, sys); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var meta, exec, xfer int
	for _, e := range events {
		switch e["ph"] {
		case "M":
			meta++
		case "X":
			switch e["cat"] {
			case "exec":
				exec++
			case "transfer":
				xfer++
			}
		}
	}
	if meta != 3 {
		t.Errorf("thread_name events = %d, want 3", meta)
	}
	if exec != 2 {
		t.Errorf("exec slices = %d, want 2", exec)
	}
	// Both kernels run on processor 0 (assignAll), so the dependent kernel
	// pays no transfer.
	if xfer != 0 {
		t.Errorf("transfer slices = %d, want 0", xfer)
	}
}

func TestChromeTraceIncludesTransfers(t *testing.T) {
	b := dfg.NewBuilder()
	a := b.AddKernel(dfg.Kernel{Name: lut.MatMul, DataElems: 64000000})
	c := b.AddKernel(dfg.Kernel{Name: lut.CD, DataElems: 64000000})
	b.AddEdge(a, c)
	g := b.MustBuild()
	sys := platform.PaperSystem(4)
	costs, err := sim.PrepareCosts(g, sys, lut.Paper(), sim.CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Put the kernels on different processors to force a transfer.
	res, err := sim.Run(costs, splitPolicy{}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, res, g, sys); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range events {
		if e["cat"] == "transfer" {
			found = true
			if e["dur"].(float64) <= 0 {
				t.Error("transfer slice has non-positive duration")
			}
		}
	}
	if !found {
		t.Error("no transfer slice in trace")
	}
}

// splitPolicy places kernel i on processor i%np.
type splitPolicy struct{}

func (splitPolicy) Name() string             { return "split" }
func (splitPolicy) Prepare(*sim.Costs) error { return nil }
func (splitPolicy) Select(st *sim.State) []sim.Assignment {
	var out []sim.Assignment
	np := st.System().NumProcs()
	for _, k := range st.AppendReady(nil) {
		out = append(out, sim.Assignment{Kernel: k, Proc: platform.ProcID(int(k) % np)})
	}
	return out
}
