package perturb

import (
	"math"
	"testing"

	"repro/internal/lut"
	"repro/internal/platform"
)

func testTable(t *testing.T) *lut.Table {
	t.Helper()
	tab, err := lut.New([]lut.Entry{
		{Kernel: "a", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 10, platform.GPU: 2, platform.FPGA: 50}},
		{Kernel: "b", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 4, platform.GPU: 8, platform.FPGA: 1}},
		{Kernel: "b", DataElems: 4000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 16, platform.GPU: 20, platform.FPGA: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNoiseZeroIsIdentity(t *testing.T) {
	tab := testTable(t)
	for _, n := range []Noise{{}, {Model: NoiseLogNormal, Seed: 9}, {Model: NoiseDrift}} {
		got, err := n.Apply(tab)
		if err != nil {
			t.Fatal(err)
		}
		if got != tab {
			t.Errorf("zero noise %+v did not return the input table", n)
		}
	}
}

func TestNoiseDeterministic(t *testing.T) {
	tab := testTable(t)
	for _, model := range []NoiseModel{NoiseUniform, NoiseLogNormal, NoiseDrift} {
		n := Noise{Model: model, Frac: 0.3, Seed: 42}
		a, err := n.Apply(tab)
		if err != nil {
			t.Fatal(err)
		}
		b, err := n.Apply(tab)
		if err != nil {
			t.Fatal(err)
		}
		ea, eb := a.Entries(), b.Entries()
		for i := range ea {
			for k, v := range ea[i].TimeMs {
				if eb[i].TimeMs[k] != v {
					t.Errorf("%s: rerun drifted at %s/%d/%s: %v vs %v",
						model, ea[i].Kernel, ea[i].DataElems, k, v, eb[i].TimeMs[k])
				}
			}
		}
		// A different seed must perturb differently somewhere.
		c, err := Noise{Model: model, Frac: 0.3, Seed: 43}.Apply(tab)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		ec := c.Entries()
		for i := range ea {
			for k, v := range ea[i].TimeMs {
				if ec[i].TimeMs[k] != v {
					same = false
				}
			}
		}
		if same {
			t.Errorf("%s: seeds 42 and 43 produced identical tables", model)
		}
	}
}

func TestNoiseUniformBounds(t *testing.T) {
	tab := testTable(t)
	frac := 0.25
	got, err := Noise{Model: NoiseUniform, Frac: frac, Seed: 7}.Apply(tab)
	if err != nil {
		t.Fatal(err)
	}
	orig := tab.Entries()
	changed := false
	for i, e := range got.Entries() {
		for k, v := range e.TimeMs {
			ratio := v / orig[i].TimeMs[k]
			if ratio < 1-frac-1e-12 || ratio > 1+frac+1e-12 {
				t.Errorf("uniform factor %v for %s/%s outside [%v, %v]", ratio, e.Kernel, k, 1-frac, 1+frac)
			}
			changed = changed || ratio != 1
		}
	}
	if !changed {
		t.Error("uniform noise changed nothing")
	}
}

func TestNoiseBiasExact(t *testing.T) {
	tab := testTable(t)
	n := Noise{Bias: map[platform.Kind]float64{platform.GPU: 1.3}}
	got, err := n.Apply(tab)
	if err != nil {
		t.Fatal(err)
	}
	orig := tab.Entries()
	for i, e := range got.Entries() {
		for k, v := range e.TimeMs {
			want := orig[i].TimeMs[k]
			if k == platform.GPU {
				want *= 1.3
			}
			if math.Abs(v-want) > 1e-12*want {
				t.Errorf("%s/%d/%s = %v, want %v", e.Kernel, e.DataElems, k, v, want)
			}
		}
	}
}

func TestNoisePositiveTimes(t *testing.T) {
	tab := testTable(t)
	for _, n := range []Noise{
		{Model: NoiseUniform, Frac: 0.99, Seed: 1},
		{Model: NoiseLogNormal, Frac: 2, Seed: 1},
		{Model: NoiseDrift, Frac: 0.5, Seed: 1},
	} {
		got, err := n.Apply(tab)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range got.Entries() {
			for k, v := range e.TimeMs {
				if !(v > 0) {
					t.Errorf("%v: non-positive actual time %v for %s/%s", n, v, e.Kernel, k)
				}
			}
		}
	}
}

func TestNoiseValidation(t *testing.T) {
	cases := []Noise{
		{Model: NoiseUniform, Frac: 1},
		{Model: NoiseUniform, Frac: -0.1},
		{Model: NoiseLogNormal, Frac: -1},
		{Model: NoiseLogNormal, Frac: math.Inf(1)},
		{Model: NoiseDrift, Frac: math.NaN()},
		{Bias: map[platform.Kind]float64{platform.CPU: 0}},
		{Bias: map[platform.Kind]float64{platform.CPU: -2}},
		{Bias: map[platform.Kind]float64{platform.CPU: math.Inf(1)}},
		{Model: NoiseModel(99)},
	}
	for _, n := range cases {
		if _, err := n.Apply(testTable(t)); err == nil {
			t.Errorf("Apply accepted invalid noise %+v", n)
		}
	}
}

func TestParseNoiseModel(t *testing.T) {
	for name, want := range map[string]NoiseModel{
		"uniform": NoiseUniform, "lognormal": NoiseLogNormal, "drift": NoiseDrift,
	} {
		got, err := ParseNoiseModel(name)
		if err != nil || got != want {
			t.Errorf("ParseNoiseModel(%q) = %v, %v; want %v", name, got, err, want)
		}
		if got.String() != name {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), name)
		}
	}
	if _, err := ParseNoiseModel("gaussian"); err == nil {
		t.Error("ParseNoiseModel accepted unknown model")
	}
}

func TestNoiseBiasUnknownKindRejected(t *testing.T) {
	// A typo'd kind would otherwise silently never apply.
	n := Noise{Bias: map[platform.Kind]float64{platform.Kind("GPUX"): 1.3}}
	if _, err := n.Apply(testTable(t)); err == nil {
		t.Error("bias for a kind absent from the table accepted")
	}
}

// Apply must copy: the estimate table (often the shared lut.Paper
// singleton) stays what every policy decides with.
func TestNoiseDoesNotMutateInput(t *testing.T) {
	for _, tab := range []*lut.Table{testTable(t), lut.Paper()} {
		before := tab.Entries()
		for _, n := range []Noise{
			{Model: NoiseUniform, Frac: 0.5, Seed: 9},
			{Model: NoiseLogNormal, Frac: 0.5, Seed: 9},
			{Model: NoiseDrift, Frac: 0.5, Seed: 9},
			{Bias: map[platform.Kind]float64{platform.GPU: 1.3}},
		} {
			if _, err := n.Apply(tab); err != nil {
				t.Fatal(err)
			}
			for i, e := range tab.Entries() {
				for k, v := range e.TimeMs {
					if v != before[i].TimeMs[k] {
						t.Fatalf("%+v mutated the input table at %s/%d/%s: %v -> %v",
							n, e.Kernel, e.DataElems, k, before[i].TimeMs[k], v)
					}
				}
			}
		}
	}
}
