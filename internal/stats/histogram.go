package stats

import (
	"fmt"
	"math"
)

// histRef is the smallest magnitude a Histogram resolves (1 µs in the
// repository's millisecond unit); everything at or below it shares one
// bucket.
const histRef = 1e-3

// Histogram accumulates a non-negative sample distribution in
// logarithmically spaced buckets: bucket i covers [ref·gⁱ, ref·gⁱ⁺¹) for
// growth factor g, so any quantile estimate is within a factor g of the
// exact value while memory stays O(log(max/min)) regardless of stream
// length. Histograms with equal growth merge exactly, which is what lets
// the shards of a long-horizon streaming run aggregate their latency
// distributions without retaining per-kernel samples.
//
// The zero Histogram is not usable; construct with NewHistogram. Methods
// are not safe for concurrent use.
type Histogram struct {
	growth  float64
	invLogG float64  // 1 / ln(growth)
	counts  []uint64 // counts[i]: samples in [histRef·growthⁱ, histRef·growthⁱ⁺¹)
	under   uint64   // samples <= histRef
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// NewHistogram returns an empty histogram whose buckets grow by the given
// factor per step; e.g. 1.1 bounds the relative quantile error at 10%.
// growth must be greater than 1.
func NewHistogram(growth float64) (*Histogram, error) {
	if !(growth > 1) || math.IsInf(growth, 1) {
		return nil, fmt.Errorf("stats: histogram growth must be a finite value > 1, got %v", growth)
	}
	return &Histogram{growth: growth, invLogG: 1 / math.Log(growth)}, nil
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int { return int(h.count) }

// Sum returns the total of the recorded samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean of the recorded samples, 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest recorded sample, 0 when empty (never -Inf).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample, 0 when empty (never +Inf).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Add records one sample. Negative samples are clamped to 0 (latencies and
// delays are non-negative; tiny negative float noise lands in the lowest
// bucket).
func (h *Histogram) Add(x float64) {
	if x < 0 || math.IsNaN(x) {
		x = 0
	}
	if h.count == 0 || x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
	h.count++
	h.sum += x
	if x <= histRef {
		h.under++
		return
	}
	i := int(math.Log(x/histRef) * h.invLogG)
	if i < 0 {
		i = 0
	}
	for i >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[i]++
}

// Merge folds other into h. Both histograms must share the same growth
// factor; merging is exact (the result is identical to having Added every
// sample into one histogram).
func (h *Histogram) Merge(other *Histogram) error {
	// Growth factors are copied configuration, never computed, so the
	// mergeability check is an exact identity comparison — made explicit
	// by comparing the bit patterns rather than float equality.
	if math.Float64bits(other.growth) != math.Float64bits(h.growth) {
		return fmt.Errorf("stats: cannot merge histograms with growth %v and %v", h.growth, other.growth)
	}
	if other.count == 0 {
		return nil
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	h.under += other.under
	for len(h.counts) < len(other.counts) {
		h.counts = append(h.counts, 0)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	return nil
}

// Quantile estimates the q-quantile of the recorded samples (0 for an
// empty histogram). The estimate is the geometric midpoint of the bucket
// holding the target rank, clamped into [Min, Max], so it is within the
// growth factor of the exact sample quantile.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.count-1))
	if rank < h.under {
		return h.min
	}
	seen := h.under
	for i, c := range h.counts {
		seen += c
		if rank < seen {
			mid := histRef * math.Pow(h.growth, float64(i)+0.5)
			return clamp(mid, h.min, h.max)
		}
	}
	return h.max
}

// Summary renders the histogram as a Summary. Std is not recoverable from
// the buckets and is reported as 0; percentiles carry the histogram's
// relative-error bound.
func (h *Histogram) Summary() Summary {
	if h.count == 0 {
		return Summary{}
	}
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Bucket is one non-empty histogram cell: Count samples in [Lo, Hi).
type Bucket struct {
	Lo, Hi float64
	Count  int
}

// Buckets returns the non-empty cells in ascending order; the
// under-resolution cell appears first as [0, histRef] (closed at both
// ends). Useful for rendering the distribution.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	if h.under > 0 {
		out = append(out, Bucket{Lo: 0, Hi: histRef, Count: int(h.under)})
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo := histRef * math.Pow(h.growth, float64(i))
		out = append(out, Bucket{Lo: lo, Hi: lo * h.growth, Count: int(c)})
	}
	return out
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
