package radix

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// draw returns a value from the mix the radix orders must handle: ties, +0,
// +Inf, subnormals, extreme magnitudes and values sharing their top bytes.
func draw(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return float64(r.Intn(4)) // ties, +0
	case 1:
		return math.Inf(1)
	case 2:
		return math.Float64frombits(uint64(r.Int63n(1 << 52))) // subnormal
	case 3:
		return math.MaxFloat64 / float64(1+r.Intn(3))
	case 4:
		return 1 + r.Float64() // one shared exponent byte
	default:
		return r.ExpFloat64() * 1e3
	}
}

// fallbacks are the values Key refuses; one of them sends Float64s to
// sort.Float64s.
var fallbacks = []float64{math.NaN(), math.Copysign(0, -1), -3.5, math.Inf(-1)}

// checkFloat64s sorts a copy of xs both ways and fails on any bit that
// differs.
func checkFloat64s(t *testing.T, what string, xs []float64, buf []uint64) []uint64 {
	t.Helper()
	want := slices.Clone(xs)
	sort.Float64s(want)
	buf = Float64s(xs, buf)
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s (n=%d): xs[%d] = %v (%#x), sort.Float64s gives %v (%#x)",
				what, len(xs), i, xs[i], math.Float64bits(xs[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return buf
}

// TestFloat64sMatchesSort is Float64s' property test: over random inputs
// at lengths on both sides of MinLen, with every byte shared (all passes
// skipped), already ascending (the one-check path), and ascending but for
// a late NaN, −0 or negative value or a late descent, Float64s must leave
// exactly the bits sort.Float64s does.
func TestFloat64sMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var buf []uint64
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(3 * MinLen)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw(r)
		}
		switch {
		case trial%5 == 4 && n > 0:
			xs[r.Intn(n)] = fallbacks[trial/5%len(fallbacks)]
		case trial%7 == 6:
			for i := range xs {
				xs[i] = 42.5 // every byte shared: no pass runs
			}
		case trial%3 == 2 && n > 0:
			sort.Float64s(xs) // ascending: one check, no pass
			switch trial % 4 {
			case 0:
				xs[n-1] = fallbacks[trial/3%len(fallbacks)]
			case 1:
				xs[n-1] = xs[0] / 2 // a descent at the very end
			}
		}
		buf = checkFloat64s(t, "trial", xs, buf)
	}
}

// TestFloat64sSortedLeavesBuffer pins the one-check path: an ascending
// input of MinLen or more values is returned untouched without growing the
// scratch.
func TestFloat64sSortedLeavesBuffer(t *testing.T) {
	xs := make([]float64, 2*MinLen)
	for i := range xs {
		xs[i] = float64(i / 3) // ties, +0 first
	}
	xs[len(xs)-1] = math.Inf(1)
	if buf := Float64s(xs, nil); buf != nil {
		t.Fatalf("ascending input grew the scratch to %d", len(buf))
	}
	if allocs := testing.AllocsPerRun(10, func() { Float64s(xs, nil) }); allocs != 0 {
		t.Fatalf("ascending input allocated %v times", allocs)
	}
}

// checkPerm fills o's keys with keys and compares Perm with a stable
// comparison sort of the indices.
func checkPerm(t *testing.T, o *Order, keys []uint64) {
	t.Helper()
	copy(o.Keys(len(keys)), keys)
	got := o.Perm()
	want := make([]int32, len(keys))
	for i := range want {
		want[i] = int32(i)
	}
	slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	if len(got) != len(want) {
		t.Fatalf("Perm has %d indices for %d keys", len(got), len(keys))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: Perm[%d] = %d (key %#x), stable sort gives %d (key %#x)",
				len(keys), i, got[i], keys[got[i]], want[i], keys[want[i]])
		}
	}
}

// TestPermMatchesStableSort is Order's property test: on random keys with
// heavy ties — float patterns of +0, +Inf, subnormals and shared top
// bytes, their complements (HEFT's descending key), and raw 64-bit values
// — Perm equals slices.SortStableFunc over the indices. One Order serves
// every trial, shrinking and growing, as a policy's scratch does.
func TestPermMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var o Order
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(3 * MinLen)
		if trial < 4 {
			n = trial // empty, one and two keys
		}
		keys := make([]uint64, n)
		for i := range keys {
			b := math.Float64bits(draw(r))
			switch trial % 3 {
			case 1:
				b = ^b
			case 2:
				b = r.Uint64() >> uint(r.Intn(64))
			}
			keys[i] = b
		}
		if trial%11 == 10 {
			for i := range keys {
				keys[i] = 7 // every byte shared
			}
		}
		checkPerm(t, &o, keys)
	}
}

// FuzzRadixOrder drives both radix orders against the comparison sorts
// they replace. The fuzzer picks a palette of up to eight 64-bit patterns
// (any float, NaN and −0 included), a length up to 3·MinLen and a seed;
// the seed draws the input from the palette, so long inputs carry heavy
// ties, with every fourth value a fresh random pattern when mix is odd.
// Perm must equal a stable index sort on the patterns, and Float64s on the
// patterns read as floats must leave sort.Float64s' bits.
func FuzzRadixOrder(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var out []byte
		for _, x := range xs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
		return out
	}
	f.Add(bits(0, 1, math.Inf(1)), uint16(3*MinLen), int64(1), uint8(0))
	f.Add(bits(1.5, 1.5000000000000002, 5e-324), uint16(MinLen), int64(2), uint8(1))
	f.Add(bits(2, math.NaN(), 3), uint16(MinLen+1), int64(3), uint8(0))
	f.Add(bits(4, math.Copysign(0, -1), 0), uint16(2*MinLen), int64(4), uint8(1))
	f.Add(bits(-1, 1), uint16(100), int64(5), uint8(1))
	f.Fuzz(func(t *testing.T, palette []byte, length uint16, seed int64, mix uint8) {
		var pal []uint64
		for len(palette) > 0 && len(pal) < 8 {
			var word [8]byte
			palette = palette[copy(word[:], palette):]
			pal = append(pal, binary.LittleEndian.Uint64(word[:]))
		}
		if len(pal) == 0 {
			pal = []uint64{0}
		}
		r := rand.New(rand.NewSource(seed))
		n := int(length) % (3*MinLen + 1)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = pal[r.Intn(len(pal))]
			if mix%2 == 1 && i%4 == 3 {
				keys[i] = r.Uint64()
			}
		}
		var o Order
		checkPerm(t, &o, keys)
		xs := make([]float64, n)
		for i, k := range keys {
			xs[i] = math.Float64frombits(k)
		}
		if mix%4 >= 2 {
			sort.Float64s(xs) // exercise the one-check path
		}
		checkFloat64s(t, "fuzz", xs, nil)
	})
}
