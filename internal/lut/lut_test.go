package lut

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

func TestPaperTableShape(t *testing.T) {
	tab := Paper()
	wantKernels := []string{BFS, CD, GEM, MatMul, MatInv, NW, SRAD} // sorted: bfs cd gem matmul mi nw srad
	got := tab.Kernels()
	if len(got) != len(wantKernels) {
		t.Fatalf("Kernels = %v, want %v", got, wantKernels)
	}
	for i := range got {
		if got[i] != wantKernels[i] {
			t.Errorf("Kernels[%d] = %q, want %q", i, got[i], wantKernels[i])
		}
	}
	for _, k := range []string{MatMul, MatInv, CD} {
		if n := len(tab.Sizes(k)); n != 7 {
			t.Errorf("Sizes(%s) has %d entries, want 7", k, n)
		}
	}
	for _, k := range []string{NW, BFS, SRAD, GEM} {
		if n := len(tab.Sizes(k)); n != 1 {
			t.Errorf("Sizes(%s) has %d entries, want 1", k, n)
		}
	}
}

// Spot-check values against the thesis Table 14 and Table 7.
func TestPaperTableValues(t *testing.T) {
	tab := Paper()
	cases := []struct {
		kernel string
		elems  int64
		kind   platform.Kind
		want   float64
	}{
		{MatMul, 16000000, platform.CPU, 1967.286},
		{MatMul, 16000000, platform.GPU, 0.061},
		{MatMul, 16000000, platform.FPGA, 76293.945},
		{CD, 16000000, platform.FPGA, 5.407},
		// Table 7 prints CD/CPU as 17064e-4 (=1.7064) but Table 14 and the
		// GPU/FPGA columns agree on 17.064; we treat Table 14 as authoritative.
		{CD, 250000, platform.CPU, 17.064},
		{MatInv, 698896, platform.CPU, 148.387},
		{MatInv, 698896, platform.GPU, 22.352},
		{MatInv, 698896, platform.FPGA, 110.597},
		{NW, 16777216, platform.CPU, 112},
		{NW, 16777216, platform.GPU, 146},
		{NW, 16777216, platform.FPGA, 397},
		{BFS, 2034736, platform.FPGA, 106},
		{SRAD, 134217728, platform.GPU, 1600},
		{GEM, 2070376, platform.GPU, 4001},
	}
	for _, c := range cases {
		got, err := tab.Exec(c.kernel, c.elems, c.kind)
		if err != nil {
			t.Fatalf("Exec(%s,%d,%s): %v", c.kernel, c.elems, c.kind, err)
		}
		if got != c.want {
			t.Errorf("Exec(%s,%d,%s) = %v, want %v", c.kernel, c.elems, c.kind, got, c.want)
		}
	}
}

func TestExecErrors(t *testing.T) {
	tab := Paper()
	if _, err := tab.Exec("nonexistent", 100, platform.CPU); err == nil {
		t.Error("unknown kernel: want error")
	}
	if _, err := tab.Exec(MatMul, 0, platform.CPU); err == nil {
		t.Error("zero size: want error")
	}
	if _, err := tab.Exec(MatMul, -5, platform.CPU); err == nil {
		t.Error("negative size: want error")
	}
	if _, err := tab.Exec(MatMul, 250000, "TPU"); err == nil {
		t.Error("unknown kind: want error")
	}
}

func TestExecInterpolation(t *testing.T) {
	tab := Paper()
	// Halfway (in elements) between 250000 and 698896 for MatMul on CPU:
	// 29.631 .. 131.183.
	mid := int64((250000 + 698896) / 2)
	got, err := tab.Exec(MatMul, mid, platform.CPU)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(mid-250000) / float64(698896-250000)
	want := 29.631 + frac*(131.183-29.631)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("interpolated = %v, want %v", got, want)
	}
}

func TestExecClamping(t *testing.T) {
	tab := Paper()
	lo, err := tab.Exec(MatMul, 10, platform.CPU)
	if err != nil || lo != 29.631 {
		t.Errorf("below-range Exec = %v,%v; want 29.631", lo, err)
	}
	hi, err := tab.Exec(MatMul, 1<<40, platform.CPU)
	if err != nil || hi != 15487.652 {
		t.Errorf("above-range Exec = %v,%v; want 15487.652", hi, err)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	good := row(MatMul, 100, 1, 2, 3)
	cases := []struct {
		name    string
		entries []Entry
	}{
		{"empty", nil},
		{"empty kernel", []Entry{{Kernel: "", DataElems: 1, TimeMs: good.TimeMs}}},
		{"zero size", []Entry{{Kernel: "k", DataElems: 0, TimeMs: good.TimeMs}}},
		{"negative time", []Entry{row("k", 1, -1, 2, 3)}},
		{"duplicate", []Entry{row("k", 1, 1, 2, 3), row("k", 1, 4, 5, 6)}},
		{"ragged kinds", []Entry{
			row("k", 1, 1, 2, 3),
			{Kernel: "j", DataElems: 1, TimeMs: map[platform.Kind]float64{platform.CPU: 1}},
		}},
	}
	for _, c := range cases {
		if _, err := New(c.entries); err == nil {
			t.Errorf("%s: New succeeded, want error", c.name)
		}
	}
}

// TestTimeErrors pins the typed time error: New refuses a negative or NaN
// time with a *TimeError naming the row and kind, and accepts +Inf.
func TestTimeErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*Table, error)
		want  *TimeError // nil: accepted
	}{
		{"New NaN", func() (*Table, error) { return New([]Entry{row("k", 5, 1, math.NaN(), 3)}) },
			&TimeError{Kernel: "k", DataElems: 5, Kind: platform.GPU}},
		{"New negative", func() (*Table, error) { return New([]Entry{row("k", 5, -1, 2, 3)}) },
			&TimeError{Kernel: "k", DataElems: 5, Kind: platform.CPU}},
		{"New +Inf", func() (*Table, error) { return New([]Entry{row("k", 5, 1, 2, math.Inf(1))}) }, nil},
		{"New -Inf", func() (*Table, error) { return New([]Entry{row("j", 3, math.Inf(-1), 2, 3)}) },
			&TimeError{Kernel: "j", DataElems: 3, Kind: platform.CPU}},
	} {
		_, err := tc.build()
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		var te *TimeError
		if !errors.As(err, &te) {
			t.Errorf("%s: returned %v (%T), want *TimeError", tc.name, err, err)
			continue
		}
		if te.Kernel != tc.want.Kernel || te.DataElems != tc.want.DataElems || te.Kind != tc.want.Kind {
			t.Errorf("%s: TimeError names %q/%d/%s, want %q/%d/%s", tc.name,
				te.Kernel, te.DataElems, te.Kind, tc.want.Kernel, tc.want.DataElems, tc.want.Kind)
		}
		if math.IsNaN(te.TimeMs) != strings.Contains(err.Error(), "NaN") {
			t.Errorf("%s: message %q does not say what the time was", tc.name, err)
		}
	}
}

func TestEntriesAreCopies(t *testing.T) {
	tab := Paper()
	es := tab.Entries()
	if len(es) != 25 {
		t.Fatalf("Entries len = %d, want 25", len(es))
	}
	es[0].TimeMs[platform.CPU] = -999
	v, err := tab.Exec(es[0].Kernel, es[0].DataElems, platform.CPU)
	if err != nil {
		t.Fatal(err)
	}
	if v == -999 {
		t.Error("mutating Entries() result corrupted the table")
	}
}

func TestDwarf(t *testing.T) {
	if Dwarf(NW) != "Dynamic Programming" {
		t.Errorf("Dwarf(nw) = %q", Dwarf(NW))
	}
	if Dwarf(BFS) != "Graph Traversal" {
		t.Errorf("Dwarf(bfs) = %q", Dwarf(BFS))
	}
	if Dwarf("unknown") != "" {
		t.Errorf("Dwarf(unknown) = %q, want empty", Dwarf("unknown"))
	}
}

// Property: interpolation stays within [min(endpoint), max(endpoint)] of the
// bracketing measured values, for all kernels, kinds and in-range sizes.
func TestInterpolationBoundedProperty(t *testing.T) {
	tab := Paper()
	f := func(kernelIdx uint8, kindIdx uint8, fracPct uint16) bool {
		kernels := tab.Kernels()
		kernel := kernels[int(kernelIdx)%len(kernels)]
		kinds := tab.Kinds()
		kind := kinds[int(kindIdx)%len(kinds)]
		sizes := tab.Sizes(kernel)
		if len(sizes) < 2 {
			return true
		}
		// Pick a point inside the first bracket via fracPct.
		lo, hi := sizes[0], sizes[1]
		span := hi - lo
		x := lo + int64(float64(span)*float64(fracPct%101)/100)
		got, err := tab.Exec(kernel, x, kind)
		if err != nil {
			return false
		}
		a, _ := tab.Exec(kernel, lo, kind)
		b, _ := tab.Exec(kernel, hi, kind)
		min, max := math.Min(a, b), math.Max(a, b)
		return got >= min-1e-9 && got <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
