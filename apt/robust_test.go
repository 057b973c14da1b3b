package apt

import (
	"context"
	"testing"
)

func robustSuite(t *testing.T) []*Workload {
	t.Helper()
	var ws []*Workload
	for i, n := range []int{20, 30} {
		w, err := GenerateWorkload(Type1, n, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

func TestPerturbNoiseChangesReality(t *testing.T) {
	w, err := GenerateWorkload(Type1, 25, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := PaperMachine(4)
	// HEFT is static: its whole schedule is computed from the estimates in
	// Prepare, so noise on the actual times must never move a placement —
	// only the realised timing. (Dynamic policies may legitimately place
	// differently, because completion times shift the state they react to.)
	clean, err := Run(w, m, HEFT(), nil)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Run(w, m, HEFT(), &Options{Perturb: &Perturbation{
		Noise: Noise{Model: NoiseLogNormal, Frac: 0.4, Seed: 11},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.MakespanMs == clean.MakespanMs {
		t.Error("40% log-normal noise left the makespan bit-identical to the clean run")
	}
	cleanRows, noisyRows := clean.Kernels(), noisy.Kernels()
	for i := range cleanRows {
		if cleanRows[i].Proc != noisyRows[i].Proc {
			t.Fatalf("kernel %d placed on %d under noise vs %d clean — noise leaked into HEFT's decisions",
				i, noisyRows[i].Proc, cleanRows[i].Proc)
		}
	}
	// Deterministic: same options, same result.
	again, err := Run(w, m, HEFT(), &Options{Perturb: &Perturbation{
		Noise: Noise{Model: NoiseLogNormal, Frac: 0.4, Seed: 11},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if again.MakespanMs != noisy.MakespanMs {
		t.Errorf("rerun makespan %v != %v", again.MakespanMs, noisy.MakespanMs)
	}
}

func TestPerturbDegradationStretchesRun(t *testing.T) {
	w, err := GenerateWorkload(Type1, 25, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := PaperMachine(4)
	clean, err := Run(w, m, APT(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every processor 3x slower for the whole horizon: the makespan must
	// grow (by up to 3x).
	var events []DegradeEvent
	for p := 0; p < m.NumProcs(); p++ {
		events = append(events, DegradeEvent{
			Kind: ProcSlowdown, Proc: p, Factor: 3, StartMs: 0, EndMs: 100 * clean.MakespanMs,
		})
	}
	deg, err := Run(w, m, APT(4), &Options{Perturb: &Perturbation{Events: events}})
	if err != nil {
		t.Fatal(err)
	}
	if deg.MakespanMs <= clean.MakespanMs {
		t.Errorf("degraded makespan %v <= clean %v", deg.MakespanMs, clean.MakespanMs)
	}
}

func TestRunRobustnessZeroNoiseHasZeroRegret(t *testing.T) {
	pts, err := RunRobustness(context.Background(), RobustnessConfig{
		Workloads: robustSuite(t),
		Machine:   PaperMachine(4),
		Policies:  []Policy{APT(4), MET(1)},
		Fracs:     []float64{0, 0.3},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4 (2 fracs x 2 policies)", len(pts))
	}
	for _, p := range pts[:2] {
		if p.Frac != 0 {
			t.Fatalf("first points should be frac 0, got %v", p.Frac)
		}
		if p.MakespanMs != p.OracleMs || p.RegretPct != 0 {
			t.Errorf("%s at frac 0: makespan %v, oracle %v, regret %v — want identical runs",
				p.Policy, p.MakespanMs, p.OracleMs, p.RegretPct)
		}
	}
	for _, p := range pts {
		if p.MakespanMs <= 0 || p.OracleMs <= 0 || p.P99SojournMs <= 0 {
			t.Errorf("point %+v has non-positive metrics", p)
		}
	}
}

func TestRunRobustnessDeterministic(t *testing.T) {
	cfg := RobustnessConfig{
		Workloads: robustSuite(t),
		Machine:   PaperMachine(4),
		Policies:  []Policy{APT(4), HEFT()},
		Fracs:     []float64{0.2},
		Model:     NoiseDrift,
		Bias:      map[ProcKind]float64{GPU: 1.3},
		Events:    []DegradeEvent{{Kind: ProcOffline, Proc: 1, StartMs: 100, EndMs: 400}},
		Seed:      99,
		Arrivals: func(w *Workload, i int) ([]float64, error) {
			return PoissonArrivals(w, 50, int64(i))
		},
	}
	a, err := RunRobustness(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	b, err := RunRobustness(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("point counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d drifted across reruns/worker counts: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunRobustnessValidation(t *testing.T) {
	ws := robustSuite(t)
	m := PaperMachine(4)
	cases := []RobustnessConfig{
		{Machine: m, Policies: []Policy{APT(4)}, Fracs: []float64{0}},    // no workloads
		{Workloads: ws, Policies: []Policy{APT(4)}, Fracs: []float64{0}}, // no machine
		{Workloads: ws, Machine: m, Fracs: []float64{0}},                 // no policies
		{Workloads: ws, Machine: m, Policies: []Policy{APT(4)}},          // no fracs
		{Workloads: ws, Machine: m, Policies: []Policy{APT(4)}, Fracs: []float64{0.5}, Options: &Options{Arrivals: []float64{1}}},
	}
	for i, cfg := range cases {
		if _, err := RunRobustness(context.Background(), cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Invalid noise magnitude surfaces as a batch error.
	if _, err := RunRobustness(context.Background(), RobustnessConfig{
		Workloads: ws, Machine: m, Policies: []Policy{APT(4)}, Fracs: []float64{1.5},
	}); err == nil {
		t.Error("uniform frac 1.5 accepted")
	}
}

func TestParseDegradeEventsFacade(t *testing.T) {
	evs, err := ParseDegradeEvents("slow:0:2:10:20,link:0:1:4:0:5")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Kind != ProcSlowdown || evs[1].Kind != LinkSlowdown {
		t.Fatalf("parsed %+v", evs)
	}
	if _, err := ParseDegradeEvents("nope:1"); err == nil {
		t.Error("malformed spec accepted")
	}
	if m, err := ParseNoiseModel("drift"); err != nil || m != NoiseDrift || m.String() != "drift" {
		t.Errorf("ParseNoiseModel drift = %v, %v", m, err)
	}
}
