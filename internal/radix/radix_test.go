package radix

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// draw returns a value from the mix the radix order must handle: ties, +0,
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

// FuzzRadixOrder drives Perm against the stable comparison sort it
// replaces. The fuzzer picks a palette of up to eight 64-bit patterns (any
// float, NaN and −0 included), a length up to 3·MinLen and a seed; the seed
// draws the keys from the palette, so long inputs carry heavy ties. With
// bit 0 of mix set every fourth key is a fresh random pattern; with bit 1
// set every key is complemented, as HEFT's descending rank keys are. Perm
// must equal a stable index sort on the keys.
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
	f.Add(bits(0, 1, 2.5, math.Inf(1)), uint16(MinLen+300), int64(6), uint8(2)) // HEFT's keys
	f.Add(bits(0, 7, 7.5, math.Inf(1)), uint16(500), int64(7), uint8(3))        // short, mixed
	f.Add(bits(3, 0.5, 9, 1e300), uint16(3*MinLen), int64(8), uint8(3))         // long, mixed
	f.Add(bits(42.5), uint16(MinLen), int64(9), uint8(0))                       // every byte shared
	f.Add(bits(math.Copysign(0, -1), 3, 0), uint16(2), int64(10), uint8(2))     // two keys
	f.Add(bits(-2, 5, 0, math.Inf(1)), uint16(0), int64(11), uint8(1))          // no keys
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
			if mix&1 != 0 && i%4 == 3 {
				keys[i] = r.Uint64()
			}
			if mix&2 != 0 {
				keys[i] = ^keys[i]
			}
		}
		var o Order
		checkPerm(t, &o, keys)
	})
}
