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
// sort instead. Below MinLen elements callers run the comparison sort too,
// except that Float64s leaves one ascending run as it is and merges a few
// at any length.
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

// maxRuns is the most ascending runs Float64s merges: pairwise merging
// costs ⌈log₂ runs⌉ passes, which stays below the radix passes' fixed cost
// up to about this many. A simulation's queue waits arrive as one
// ascending run per processor.
const maxRuns = 64

// Float64s sorts xs ascending with the same result, bit for bit, as
// sort.Float64s, and returns buf, grown to len(xs) when it was used.
//
// When any value is NaN, −0 or negative it is sort.Float64s. Otherwise one
// pass counts the ascending runs: one run is left as it is, up to maxRuns
// runs are merged pairwise, and more are radix-sorted from MinLen values
// up (sort.Float64s below). Merges and radix passes alternate between xs
// and buf; a radix pass whose byte every key shares is skipped. Equal
// keys have equal bits, so no order among them can differ from
// sort.Float64s'.
func Float64s(xs []float64, buf []uint64) []uint64 {
	n := len(xs)
	// bounds[:runs] are where the runs start; bounds[runs] will be n.
	var bounds [maxRuns + 1]int
	runs, many := 0, false
	prev := uint64(0)
	for i, x := range xs {
		b, ok := Key(x)
		if !ok {
			sort.Float64s(xs)
			return buf
		}
		if i == 0 || b < prev {
			if runs == maxRuns {
				many = true // the keys left are checked by the sort below
				break
			}
			bounds[runs] = i
			runs++
		}
		prev = b
	}
	switch {
	case !many && runs <= 1:
		return buf
	case !many:
		bounds[runs] = n
		return merge(xs, buf, bounds[:runs+1])
	case n < MinLen:
		sort.Float64s(xs)
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

// merge merges the ascending runs of xs that start at bounds[:len−1]
// (bounds ends with len(xs)) pairwise, each pass writing the other of xs
// and buf, and returns buf grown to len(xs). Each pass halves the runs,
// rewriting bounds in place, until one is left; it ends in xs.
func merge(xs []float64, buf []uint64, bounds []int) []uint64 {
	n := len(xs)
	buf = grow(buf, n)
	inBuf := false // whether the keys sit in buf, not xs
	for r := len(bounds) - 1; r > 1; r = (r + 1) / 2 {
		for j := 0; j < r; j += 2 {
			lo, mid, hi := bounds[j], bounds[j+1], bounds[min(j+2, r)]
			if inBuf {
				mergeBits(xs[lo:hi], buf[lo:mid], buf[mid:hi])
			} else {
				mergeFloats(buf[lo:hi], xs[lo:mid], xs[mid:hi])
			}
			bounds[j/2] = lo
		}
		bounds[(r+1)/2] = n
		inBuf = !inBuf
	}
	if inBuf {
		for i, b := range buf {
			xs[i] = math.Float64frombits(b)
		}
	}
	return buf
}

// mergeFloats merges the ascending runs a and b into dst as bit patterns.
// Their values all key exactly, so comparing values orders as the patterns
// do.
func mergeFloats(dst []uint64, a, b []float64) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || i < len(a) && a[i] <= b[j] {
			dst[k] = math.Float64bits(a[i])
			i++
		} else {
			dst[k] = math.Float64bits(b[j])
			j++
		}
	}
}

// mergeBits merges the ascending bit-pattern runs a and b into dst as
// values.
func mergeBits(dst []float64, a, b []uint64) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || i < len(a) && a[i] <= b[j] {
			dst[k] = math.Float64frombits(a[i])
			i++
		} else {
			dst[k] = math.Float64frombits(b[j])
			j++
		}
	}
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
