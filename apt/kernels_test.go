package apt

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// kernelRowsHash is the FNV-64a hash of the %v form of every per-kernel
// row of res, one per line.
func kernelRowsHash(res *Result) string {
	h := fnv.New64a()
	for _, k := range res.Kernels() {
		fmt.Fprintf(h, "%v\n", k)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestKernelRowsPinned pins the per-kernel rows of four fixed runs by
// hash, so a change to how the rows are built cannot move a field: Poisson
// arrivals (nonzero ArrivalMs), a noise perturbation with a link
// slowdown (nonzero TransferMs), APT(1.5) placing alternatives, and a
// 10k-kernel layered DAG. Each case also checks that it still exercises
// what it is there for.
func TestKernelRowsPinned(t *testing.T) {
	typ2, err := GenerateWorkload(Type2, 46, 3)
	if err != nil {
		t.Fatal(err)
	}
	stream := mustKernelStream(t, 40, 5)
	arrivals, err := PoissonArrivals(stream, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	layered, err := GenerateLayeredWorkload(10_000, 0, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := ScaleMachine(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	paper := PaperMachine(4)
	perturbed := &Options{Perturb: &Perturbation{
		Noise:  Noise{Model: NoiseLogNormal, Frac: 0.3, Seed: 3},
		Events: []DegradeEvent{{Kind: LinkSlowdown, From: 0, To: 2, Factor: 4, StartMs: 0, EndMs: 1e6}},
	}}
	anyRow := func(res *Result, f func(KernelRun) bool) bool {
		for _, k := range res.Kernels() {
			if f(k) {
				return true
			}
		}
		return false
	}
	for _, tc := range []struct {
		name   string
		w      *Workload
		m      *Machine
		p      Policy
		opts   *Options
		covers func(*Result) bool
		want   string
	}{
		{"poisson arrivals", stream, paper, APT(4), &Options{Arrivals: arrivals},
			func(r *Result) bool { return anyRow(r, func(k KernelRun) bool { return k.ArrivalMs > 0 }) },
			"3a6b919c21ce41d7"},
		{"noise and link slowdown", typ2, paper, APT(4), perturbed,
			func(r *Result) bool { return anyRow(r, func(k KernelRun) bool { return k.TransferMs > 0 }) },
			"6a990a8f381ff8e4"},
		{"APT(1.5) alternatives", typ2, paper, APT(1.5), nil,
			func(r *Result) bool { return r.Alt.AltAssignments > 0 },
			"9a3a8404be03bda6"},
		{"10k layered", layered, scale, APT(4), nil,
			func(r *Result) bool { return len(r.Kernels()) == 10_000 },
			"cad0a1b778e0404e"},
	} {
		res, err := Run(tc.w, tc.m, tc.p, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.covers(res) {
			t.Errorf("%s: the run no longer exercises what the case pins", tc.name)
		}
		if got := kernelRowsHash(res); got != tc.want {
			t.Errorf("%s: kernel rows hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
