package apt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestArrivalsOption(t *testing.T) {
	w, err := GenerateWorkload(Type1, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := PaperMachine(4)
	arr, err := PoissonArrivals(w, 1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 20 {
		t.Fatalf("arrivals = %d", len(arr))
	}
	paced, err := Run(w, m, APT(4), &Options{Arrivals: arr})
	if err != nil {
		t.Fatal(err)
	}
	unpaced, err := Run(w, m, APT(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pacing spreads the stream: makespan grows, total λ shrinks.
	if paced.MakespanMs <= unpaced.MakespanMs {
		t.Errorf("paced makespan %v <= unpaced %v", paced.MakespanMs, unpaced.MakespanMs)
	}
	if paced.LambdaTotalMs >= unpaced.LambdaTotalMs {
		t.Errorf("paced λ %v >= unpaced %v", paced.LambdaTotalMs, unpaced.LambdaTotalMs)
	}

	periodic, err := PeriodicArrivals(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if periodic[1]-periodic[0] != 10 {
		t.Errorf("periodic gap = %v", periodic[1]-periodic[0])
	}
}

func TestChromeTraceOutput(t *testing.T) {
	w, _ := GenerateWorkload(Type2, 15, 2)
	res, err := Run(w, PaperMachine(4), APT(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.ChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(events) < 15 {
		t.Errorf("trace has %d events, want >= 15", len(events))
	}
}

func TestEnergyEstimate(t *testing.T) {
	w, _ := GenerateWorkload(Type1, 20, 5)
	m := PaperMachine(4)
	apt4, err := Run(w, m, APT(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := apt4.EnergyJ(nil)
	if err != nil {
		t.Fatal(err)
	}
	if j <= 0 {
		t.Fatalf("energy = %v", j)
	}
	// Custom model: doubling all draws doubles the estimate.
	double := &PowerModel{
		ActiveW: map[ProcKind]float64{CPU: 190, GPU: 450, FPGA: 50},
		IdleW:   map[ProcKind]float64{CPU: 60, GPU: 50, FPGA: 20},
	}
	j2, err := apt4.EnergyJ(double)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := j2 / j; ratio < 1.99 || ratio > 2.01 {
		t.Errorf("doubled power model ratio = %v, want 2", ratio)
	}
	// Invalid model (missing kinds) errors.
	if _, err := apt4.EnergyJ(&PowerModel{
		ActiveW: map[ProcKind]float64{CPU: 1},
		IdleW:   map[ProcKind]float64{CPU: 1},
	}); err == nil {
		t.Error("incomplete power model accepted")
	}
}

func TestOLBAndARPolicies(t *testing.T) {
	w, _ := GenerateWorkload(Type1, 25, 4)
	m := PaperMachine(4)
	olb, err := Run(w, m, OLB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := Run(w, m, AR(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	best, err := Run(w, m, APT(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if olb.Policy != "OLB" || ar.Policy != "AR" {
		t.Errorf("policies = %q/%q", olb.Policy, ar.Policy)
	}
	if best.MakespanMs >= olb.MakespanMs {
		t.Errorf("APT (%v) should beat OLB (%v)", best.MakespanMs, olb.MakespanMs)
	}
	if !strings.Contains(strings.Join(PolicyNames(), ","), "olb") {
		t.Error("olb missing from PolicyNames")
	}
}
