package platform

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperSystem(t *testing.T) {
	s := PaperSystem(4)
	if got := s.NumProcs(); got != 3 {
		t.Fatalf("NumProcs = %d, want 3", got)
	}
	wantKinds := []Kind{CPU, GPU, FPGA}
	for i, k := range wantKinds {
		if got := s.KindOf(ProcID(i)); got != k {
			t.Errorf("KindOf(%d) = %s, want %s", i, got, k)
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r := s.Rate(ProcID(i), ProcID(j))
			if i == j && r != 0 {
				t.Errorf("Rate(%d,%d) = %v, want 0 for self link", i, j, r)
			}
			if i != j && r != 4 {
				t.Errorf("Rate(%d,%d) = %v, want 4", i, j, r)
			}
		}
	}
}

func TestBuilderDefaultNames(t *testing.T) {
	b := NewBuilder()
	b.AddProcessor(CPU, "")
	b.AddProcessor(CPU, "")
	b.AddProcessor(GPU, "")
	s := b.SetUniformRate(1).MustBuild()
	wants := []string{"CPU0", "CPU1", "GPU0"}
	for i, want := range wants {
		if got := s.Proc(ProcID(i)).Name; got != want {
			t.Errorf("proc %d name = %q, want %q", i, got, want)
		}
	}
}

func TestBuilderCustomName(t *testing.T) {
	b := NewBuilder()
	id := b.AddProcessor(GPU, "Tesla K20")
	s := b.MustBuild()
	if got := s.Proc(id).Name; got != "Tesla K20" {
		t.Errorf("name = %q, want Tesla K20", got)
	}
}

func TestBuilderEmptySystem(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Fatal("Build on empty builder succeeded, want error")
	}
}

func TestBuilderEmptyKind(t *testing.T) {
	b := NewBuilder()
	b.AddProcessor("", "x")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build with empty kind succeeded, want error")
	}
}

func TestBuilderNegativeRate(t *testing.T) {
	b := NewBuilder()
	a := b.AddProcessor(CPU, "")
	c := b.AddProcessor(GPU, "")
	b.SetRate(a, c, -1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build with negative rate succeeded, want error")
	}
}

// TestBuilderRateErrors pins the typed rate error at every entry point that
// takes a bandwidth: negative and NaN rates fail with a *RateError naming
// the link, while zero (no link) and +Inf (free transfers) stay legal.
func TestBuilderRateErrors(t *testing.T) {
	nan := GBps(math.NaN())
	inf := GBps(math.Inf(1))
	for _, tc := range []struct {
		name     string
		set      func(b *Builder, a, c ProcID)
		from, to ProcID
		bad      bool
	}{
		{"SetRate NaN", func(b *Builder, a, c ProcID) { b.SetRate(a, c, nan) }, 0, 1, true},
		{"SetRate negative", func(b *Builder, a, c ProcID) { b.SetRate(a, c, -1) }, 0, 1, true},
		{"SetRate -Inf", func(b *Builder, a, c ProcID) { b.SetRate(a, c, -inf) }, 0, 1, true},
		{"SetSymmetricRate NaN", func(b *Builder, a, c ProcID) { b.SetSymmetricRate(c, a, nan) }, 1, 0, true},
		{"SetUniformRate NaN", func(b *Builder, _, _ ProcID) { b.SetUniformRate(nan) }, Invalid, Invalid, true},
		{"SetUniformRate negative", func(b *Builder, _, _ ProcID) { b.SetUniformRate(-4) }, Invalid, Invalid, true},
		{"SetRate +Inf", func(b *Builder, a, c ProcID) { b.SetRate(a, c, inf) }, 0, 0, false},
		{"SetUniformRate +Inf", func(b *Builder, _, _ ProcID) { b.SetUniformRate(inf) }, 0, 0, false},
		{"SetRate zero", func(b *Builder, a, c ProcID) { b.SetRate(a, c, 0) }, 0, 0, false},
	} {
		b := NewBuilder()
		a := b.AddProcessor(CPU, "")
		c := b.AddProcessor(GPU, "")
		tc.set(b, a, c)
		_, err := b.Build()
		if !tc.bad {
			if err != nil {
				t.Errorf("%s: Build failed: %v", tc.name, err)
			}
			continue
		}
		var re *RateError
		if !errors.As(err, &re) {
			t.Errorf("%s: Build returned %v (%T), want *RateError", tc.name, err, err)
			continue
		}
		if re.From != tc.from || re.To != tc.to {
			t.Errorf("%s: RateError names link %d->%d, want %d->%d", tc.name, re.From, re.To, tc.from, tc.to)
		}
		if math.IsNaN(float64(re.Rate)) != strings.Contains(err.Error(), "NaN") {
			t.Errorf("%s: message %q does not say what the rate was", tc.name, err)
		}
	}
}

func TestBuilderSelfLink(t *testing.T) {
	b := NewBuilder()
	a := b.AddProcessor(CPU, "")
	b.SetRate(a, a, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build with self link succeeded, want error")
	}
}

func TestBuilderUnknownProcessorInLink(t *testing.T) {
	b := NewBuilder()
	a := b.AddProcessor(CPU, "")
	b.SetRate(a, ProcID(7), 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build with dangling link succeeded, want error")
	}
}

func TestRateOverridePrecedence(t *testing.T) {
	b := NewBuilder()
	cpu := b.AddProcessor(CPU, "")
	gpu := b.AddProcessor(GPU, "")
	fpga := b.AddProcessor(FPGA, "")
	b.SetUniformRate(4)
	b.SetSymmetricRate(cpu, gpu, 16)
	s := b.MustBuild()
	if got := s.Rate(cpu, gpu); got != 16 {
		t.Errorf("Rate(cpu,gpu) = %v, want override 16", got)
	}
	if got := s.Rate(gpu, cpu); got != 16 {
		t.Errorf("Rate(gpu,cpu) = %v, want override 16", got)
	}
	if got := s.Rate(cpu, fpga); got != 4 {
		t.Errorf("Rate(cpu,fpga) = %v, want uniform 4", got)
	}
}

func TestKindsSorted(t *testing.T) {
	s := PaperSystem(4)
	kinds := s.Kinds()
	if len(kinds) != 3 {
		t.Fatalf("Kinds len = %d, want 3", len(kinds))
	}
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Errorf("Kinds not sorted: %v", kinds)
		}
	}
}

func TestStringContainsNames(t *testing.T) {
	s := PaperSystem(8)
	str := s.String()
	for _, want := range []string{"CPU0", "GPU0", "FPGA0"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func TestProcPanicsOutOfRange(t *testing.T) {
	s := PaperSystem(4)
	defer func() {
		if recover() == nil {
			t.Error("Proc(99) did not panic")
		}
	}()
	s.Proc(99)
}

func TestGBpsBytesPerMs(t *testing.T) {
	// 4 GB/s = 4e9 bytes/s = 4e6 bytes/ms.
	if got := GBps(4).BytesPerMs(); got != 4e6 {
		t.Errorf("BytesPerMs = %v, want 4e6", got)
	}
}

// Property: for any uniform rate, every off-diagonal link reports that rate
// and every diagonal entry reports zero.
func TestUniformRateProperty(t *testing.T) {
	f := func(rateCenti uint16, nProcs uint8) bool {
		n := int(nProcs%6) + 1
		r := GBps(float64(rateCenti) / 100)
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddProcessor(CPU, "")
		}
		s := b.SetUniformRate(r).MustBuild()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got := s.Rate(ProcID(i), ProcID(j))
				if i == j && got != 0 {
					return false
				}
				if i != j && got != r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
