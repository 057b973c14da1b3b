package lut_test

import (
	"math/rand"
	"testing"

	"repro/internal/lut"
	"repro/internal/perturb"
	"repro/internal/platform"
)

// A perturbed paper table is the actual-time table that ext-noise and the
// -noise flags build: perturb.Noise's uniform model applied to lut.Paper().
// These tests pin it on the full paper table; perturb's own tests use a
// small synthetic one.

func perturbed(t *testing.T, frac float64, seed int64) *lut.Table {
	t.Helper()
	tab, err := perturb.Noise{Model: perturb.NoiseUniform, Frac: frac, Seed: seed}.Apply(lut.Paper())
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestPerturbedWithinBounds(t *testing.T) {
	base := lut.Paper()
	noisy := perturbed(t, 0.3, 7)
	changed := false
	for _, e := range base.Entries() {
		for _, k := range base.Kinds() {
			orig := e.TimeMs[k]
			got, err := noisy.Exec(e.Kernel, e.DataElems, k)
			if err != nil {
				t.Fatal(err)
			}
			if got < orig*0.7-1e-9 || got > orig*1.3+1e-9 {
				t.Errorf("%s/%d/%s perturbed to %v, outside ±30%% of %v",
					e.Kernel, e.DataElems, k, got, orig)
			}
			if got != orig {
				changed = true
			}
		}
	}
	if !changed {
		t.Error("perturbation changed nothing")
	}
}

// The draws are one seeded stream over Entries() × Kinds(), each factor
// 1 + frac·(2u − 1). ext-noise's published table depends on exactly this
// order, so it is checked against that recipe, not only against a rerun.
func TestPerturbedDeterministic(t *testing.T) {
	const frac, seed = 0.2, 3
	a, b := perturbed(t, frac, seed), perturbed(t, frac, seed)
	va, _ := a.Exec(lut.MatMul, 250000, platform.GPU)
	vb, _ := b.Exec(lut.MatMul, 250000, platform.GPU)
	if va != vb {
		t.Errorf("same seed produced %v vs %v", va, vb)
	}
	base := lut.Paper()
	r := rand.New(rand.NewSource(seed))
	for _, e := range base.Entries() {
		for _, k := range base.Kinds() {
			want := e.TimeMs[k] * (1 + frac*(2*r.Float64()-1))
			got, err := a.Exec(e.Kernel, e.DataElems, k)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s/%d/%s = %v, want %v from the seeded draw order",
					e.Kernel, e.DataElems, k, got, want)
			}
		}
	}
}

func TestPerturbedZeroIsIdentity(t *testing.T) {
	same := perturbed(t, 0, 1)
	for _, e := range lut.Paper().Entries() {
		for _, k := range lut.Paper().Kinds() {
			got, err := same.Exec(e.Kernel, e.DataElems, k)
			if err != nil {
				t.Fatal(err)
			}
			if got != e.TimeMs[k] {
				t.Fatalf("zero perturbation changed %s/%d/%s", e.Kernel, e.DataElems, k)
			}
		}
	}
}

func TestPerturbedValidation(t *testing.T) {
	for _, frac := range []float64{-0.1, 1} {
		n := perturb.Noise{Model: perturb.NoiseUniform, Frac: frac, Seed: 1}
		if _, err := n.Apply(lut.Paper()); err == nil {
			t.Errorf("fraction %v accepted (must be in [0,1), or times could reach zero)", frac)
		}
	}
}
