// Package radix orders float64 values, and the indices of uint64 keys, with
// stable LSD radix passes that give exactly the result of the comparison
// sorts they stand in for.
//
// Non-negative, non-NaN float64s order as their IEEE 754 bit patterns read
// as unsigned integers, and equal values have equal patterns (M. Herf,
// "Radix Tricks", 2001). So sorting such values, or indices keyed by their
// patterns, by byte-wide counting passes yields the one ascending order a
// comparison sort gives. A NaN, −0 or negative value breaks that
// correspondence; Key reports it, and callers then run their comparison
// sort instead. Below MinLen elements callers run the comparison sort too.
package radix

import (
	"math"
	"sort"
)

// MinLen is the shortest input worth a radix order. Below it the fixed
// cost (eight 256-entry histograms, up to eight passes) outweighs a
// comparison sort: on a 2-vCPU Xeon, radix sorting float64s was 2.4×
// slower than sort.Float64s at 157 values, between 1.2× faster and 1.8×
// slower at 1000 depending on ties, 1.4–2.8× faster at 2000 and 1.8–4.2×
// faster from 10k.
const MinLen = 2048

// inf is math.Float64bits(math.Inf(1)), the largest pattern Key accepts.
const inf = 0x7FF0000000000000

// Key returns x's IEEE 754 bit pattern and whether that pattern orders as
// x does: true for +0, positive values and +Inf, false for NaN, −0 and
// negative values (their patterns exceed +Inf's).
func Key(x float64) (uint64, bool) {
	b := math.Float64bits(x)
	return b, b <= inf
}

// Float64s sorts xs ascending with the same result, bit for bit, as
// sort.Float64s, and returns buf, grown to len(xs) when it was used.
//
// Below MinLen, or when any value is NaN, −0 or negative, it is
// sort.Float64s. Otherwise an input already ascending costs one linear
// check; any other is radix-sorted, the passes alternating between xs and
// buf and a pass whose byte every key shares skipped.
func Float64s(xs []float64, buf []uint64) []uint64 {
	n := len(xs)
	if n < MinLen {
		sort.Float64s(xs)
		return buf
	}
	sorted := true
	prev := uint64(0)
	for _, x := range xs {
		b, ok := Key(x)
		if !ok {
			sort.Float64s(xs)
			return buf
		}
		if b < prev {
			sorted = false
			break
		}
		prev = b
	}
	if sorted {
		return buf
	}
	var counts [8][256]int32
	for _, x := range xs {
		b, ok := Key(x)
		if !ok {
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
		offsets(c)
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

// Order is the reusable scratch of a stable radix order of the indices
// 0..n−1 by uint64 keys: 24 bytes per index, grown to the largest n ordered
// and reused after. The zero value is ready to use.
type Order struct {
	keys, kbuf []uint64
	perm, pbuf []int32
}

// Keys returns n keys for the caller to fill: keys[i] is index i's key in
// the next Perm call. The contents are unspecified until filled.
func (o *Order) Keys(n int) []uint64 {
	o.keys = grow(o.keys, n)
	return o.keys
}

// Perm returns the indices 0..n−1 of the keys last returned by Keys,
// ordered by ascending key, equal keys by ascending index: the order
// slices.SortStableFunc gives the indices with cmp.Compare on their keys.
// The slice aliases o's scratch and is valid until the next call on o;
// Perm consumes the keys.
func (o *Order) Perm() []int32 {
	keys := o.keys
	n := len(keys)
	o.perm = grow(o.perm, n)
	perm := o.perm
	for i := range perm {
		perm[i] = int32(i)
	}
	if n < 2 {
		return perm
	}
	var counts [8][256]int32
	for _, k := range keys {
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	o.kbuf = grow(o.kbuf, n)
	o.pbuf = grow(o.pbuf, n)
	ks, kd := keys, o.kbuf
	ps, pd := perm, o.pbuf
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if int(c[byte(ks[0]>>shift)]) == n {
			continue // every key shares this byte: the pass would not move one
		}
		offsets(c)
		for i, k := range ks {
			j := byte(k >> shift)
			kd[c[j]] = k
			pd[c[j]] = ps[i]
			c[j]++
		}
		ks, kd = kd, ks
		ps, pd = pd, ps
	}
	return ps
}

// offsets turns a byte histogram into each byte's first output position.
func offsets(c *[256]int32) {
	var at int32
	for i, k := range c {
		c[i] = at
		at += k
	}
}

// grow returns s resized to n elements, reusing its backing array when
// possible. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
