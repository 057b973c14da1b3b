package sim

import (
	"math"
	"sort"
)

// radixMinLen is the shortest slice sortFloat64s radix-sorts. Below it the
// radix sort's fixed cost (eight 256-entry histograms, up to eight passes)
// outweighs a comparison sort: on a 2-vCPU Xeon, radix sorting was 2.4×
// slower than sort.Float64s at 157 values, between 1.2× faster and 1.8×
// slower at 1000 depending on ties, 1.4–2.8× faster at 2000 and 1.8–4.2×
// faster from 10k.
const radixMinLen = 2048

// sortFloat64s sorts xs ascending with the same result, bit for bit, as
// sort.Float64s, and returns buf, grown to len(xs) when it was used.
//
// Non-negative, non-NaN float64s order as their IEEE 754 bit patterns read
// as unsigned integers, and equal values have equal patterns, so an LSD
// radix sort over the bytes of math.Float64bits yields the one ascending
// order (M. Herf, "Radix Tricks", 2001). The sojourn and queue-wait times
// the engine summarises are such values. Any NaN, −0 or negative value (its
// pattern exceeds that of +Inf) falls back to sort.Float64s. The passes
// alternate between xs and buf, and a pass whose byte every key shares is
// skipped.
func sortFloat64s(xs []float64, buf []uint64) []uint64 {
	n := len(xs)
	if n < radixMinLen {
		sort.Float64s(xs)
		return buf
	}
	const inf = 0x7FF0000000000000 // math.Float64bits(math.Inf(1))
	var counts [8][256]int32
	for _, x := range xs {
		b := math.Float64bits(x)
		if b > inf {
			sort.Float64s(xs)
			return buf
		}
		for d := range counts {
			counts[d][byte(b>>(8*d))]++
		}
	}
	buf = grow(buf, n)
	inBuf := false // whether the keys sit in buf, not xs
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		first := math.Float64bits(xs[0])
		if inBuf {
			first = buf[0]
		}
		if int(c[byte(first>>shift)]) == n {
			continue
		}
		var at int32
		for i, k := range c {
			c[i] = at
			at += k
		}
		if inBuf {
			for _, b := range buf {
				j := byte(b >> shift)
				xs[c[j]] = math.Float64frombits(b)
				c[j]++
			}
		} else {
			for _, x := range xs {
				b := math.Float64bits(x)
				j := byte(b >> shift)
				buf[c[j]] = b
				c[j]++
			}
		}
		inBuf = !inBuf
	}
	if inBuf {
		for i, b := range buf {
			xs[i] = math.Float64frombits(b)
		}
	}
	return buf
}
