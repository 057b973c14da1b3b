package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSortFloat64sMatchesSort is the radix sort's property test: over
// random inputs with ties, zeros, +Inf, subnormals and extreme magnitudes,
// at lengths on both sides of radixMinLen and with every byte shared (all
// passes skipped), sortFloat64s must leave exactly the bits sort.Float64s
// does. Inputs holding a NaN, −0 or a negative value take the fallback and
// must match too.
func TestSortFloat64sMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	draw := func() float64 {
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
	fallbacks := []float64{math.NaN(), math.Copysign(0, -1), -3.5, math.Inf(-1)}
	var buf []uint64
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(3 * radixMinLen)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw()
		}
		switch {
		case trial%5 == 4 && n > 0:
			xs[r.Intn(n)] = fallbacks[trial/5%len(fallbacks)]
		case trial%7 == 6:
			for i := range xs {
				xs[i] = 42.5 // every byte shared: no pass runs
			}
		}
		want := slices.Clone(xs)
		sort.Float64s(want)
		buf = sortFloat64s(xs, buf)
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (n=%d): xs[%d] = %v (%#x), sort.Float64s gives %v (%#x)",
					trial, n, i, xs[i], math.Float64bits(xs[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}
