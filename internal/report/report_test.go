package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/sim"
)

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:   "Demo",
		Headers: []string{"A", "Blong"},
		Notes:   []string{"note line"},
	}
	tab.MustAddRow("1", "2")
	tab.MustAddRow("333", "4")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"Demo", "A", "Blong", "333", "note line", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("Render missing %q:\n%s", want, s)
		}
	}
}

func TestTableAddRowWidthCheck(t *testing.T) {
	tab := Table{Headers: []string{"A", "B"}}
	if err := tab.AddRow("only one"); err == nil {
		t.Error("narrow row accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow did not panic")
		}
	}()
	tab.MustAddRow("too", "many", "cells")
}

func TestTableCSV(t *testing.T) {
	tab := Table{Title: "T", Headers: []string{"x", "y"}}
	tab.MustAddRow("1", "2")
	var csvb bytes.Buffer
	if err := tab.WriteCSV(&csvb); err != nil {
		t.Fatal(err)
	}
	if got := csvb.String(); got != "x,y\n1,2\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestMsFormat(t *testing.T) {
	if Ms(42) != "42" {
		t.Errorf("Ms(42) = %q", Ms(42))
	}
	if Ms(0.093) != "0.093" {
		t.Errorf("Ms(0.093) = %q", Ms(0.093))
	}
}

func TestFigureSeriesAndCSV(t *testing.T) {
	f := Figure{Title: "F", XLabel: "α", YLabel: "ms", X: []string{"1.5", "4"}}
	if err := f.AddSeries("s", []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	f.MustAddSeries("4 GBps", []float64{10, 5})
	var csvb bytes.Buffer
	if err := f.WriteCSV(&csvb); err != nil {
		t.Fatal(err)
	}
	want := "α,4 GBps\n1.5,10\n4,5\n"
	if csvb.String() != want {
		t.Errorf("csv = %q, want %q", csvb.String(), want)
	}
	var txt bytes.Buffer
	if err := f.Render(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "4 GBps") || !strings.Contains(txt.String(), "#") {
		t.Errorf("render missing bars:\n%s", txt.String())
	}
}

func TestFigureRenderNegativeValues(t *testing.T) {
	// Regret figures carry negative values (below the oracle); they must
	// render without panicking, with an empty bar and a signed number.
	f := Figure{Title: "regret", X: []string{"0", "0.3"}}
	f.MustAddSeries("HEFT", []float64{4, -12.6})
	var txt bytes.Buffer
	if err := f.Render(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "-12.600") {
		t.Errorf("render lost the negative point:\n%s", txt.String())
	}
}

func TestRegretTable(t *testing.T) {
	tab := RegretTable("robustness", []RegretRow{
		{Label: "APT", MakespanMs: 110, OracleMs: 100, RegretPct: 10, P99SojournMs: 400},
	})
	var b bytes.Buffer
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Regret %", "APT", "+10.00", "400"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("regret table missing %q:\n%s", want, b.String())
		}
	}
}

func TestGanttAndUtilisation(t *testing.T) {
	// One-kernel run via a trivial inline policy.
	b := dfg.NewBuilder()
	b.AddKernel(dfg.Kernel{Name: lut.NW, DataElems: 16777216})
	g := b.MustBuild()
	sys := platform.PaperSystem(4)
	c, err := sim.PrepareCosts(g, sys, lut.Paper(), sim.CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(c, assignAll{}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Gantt(&buf, res, g, sys); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "start 0-nw") || !strings.Contains(s, "finish 0-nw") {
		t.Errorf("gantt missing events:\n%s", s)
	}
	buf.Reset()
	if err := Utilisation(&buf, res, sys); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CPU0") {
		t.Errorf("utilisation missing processor:\n%s", buf.String())
	}
}

// assignAll sends every ready kernel to processor 0.
type assignAll struct{}

func (assignAll) Name() string             { return "assignAll" }
func (assignAll) Prepare(*sim.Costs) error { return nil }
func (assignAll) Select(st *sim.State) []sim.Assignment {
	var out []sim.Assignment
	for _, k := range st.AppendReady(nil) {
		out = append(out, sim.Assignment{Kernel: k, Proc: 0})
	}
	return out
}
