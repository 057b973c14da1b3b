package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50},
		{-0.5, 10}, {1.5, 50}, // clamped
		{0.125, 15}, // interpolated
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v, want 0", got)
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("Quantile(single, .99) = %v, want 7", got)
	}
}

func TestSummarizeEmptyIsFiniteAndEncodable(t *testing.T) {
	s := SummarizeInPlace(nil)
	if s != (Summary{}) {
		t.Errorf("SummarizeInPlace(empty) = %+v, want zero Summary", s)
	}
	// The whole point of Summary over a raw minimum and maximum: empty
	// aggregates must survive encoding/json, which rejects ±Inf.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("empty Summary does not encode: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	s := SummarizeInPlace([]float64{4, 1, 3, 2})
	if s.Count != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("SummarizeInPlace = %+v", s)
	}
	if math.Abs(s.Mean-2.5) > 1e-12 {
		t.Errorf("Mean = %v, want 2.5", s.Mean)
	}
	if math.Abs(s.P50-2.5) > 1e-12 {
		t.Errorf("P50 = %v, want 2.5", s.P50)
	}
	if s.P99 > s.Max || s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("percentiles not monotone: %+v", s)
	}
}

func TestSummarizeInPlaceSorts(t *testing.T) {
	xs := []float64{9, 1, 5}
	s := SummarizeInPlace(xs)
	if !sort.Float64sAreSorted(xs) {
		t.Error("SummarizeInPlace left input unsorted")
	}
	if s.Min != 1 || s.Max != 9 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	const growth = 1.05
	h, err := NewHistogram(growth)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	var xs []float64
	for i := 0; i < 5000; i++ {
		x := r.ExpFloat64() * 37 // latency-shaped sample
		xs = append(xs, x)
		h.Add(x)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := Quantile(xs, q)
		got := h.Quantile(q)
		if got < exact/growth-1e-9 || got > exact*growth+1e-9 {
			t.Errorf("Quantile(%v) = %v, outside growth bound of exact %v", q, got, exact)
		}
	}
	if h.Count() != 5000 {
		t.Errorf("Count = %d", h.Count())
	}
	if math.Abs(h.Min()-xs[0]) > 1e-12 || math.Abs(h.Max()-xs[len(xs)-1]) > 1e-12 {
		t.Errorf("Min/Max = %v/%v, want %v/%v", h.Min(), h.Max(), xs[0], xs[len(xs)-1])
	}
}

func TestHistogramMergeIsExact(t *testing.T) {
	a, _ := NewHistogram(1.1)
	b, _ := NewHistogram(1.1)
	all, _ := NewHistogram(1.1)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 800; i++ {
		x := r.Float64() * 100
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != all.Count() || a.Sum() != all.Sum() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Errorf("merged counters differ: %+v vs %+v", a.Summary(), all.Summary())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("Quantile(%v): merged %v != combined %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
	mismatched, _ := NewHistogram(2)
	if err := a.Merge(mismatched); err == nil {
		t.Error("merge of mismatched growth accepted")
	}
}

func TestHistogramMergeDisjointBucketRanges(t *testing.T) {
	// lo holds sub-millisecond samples, hi holds samples five orders of
	// magnitude larger: their bucket ranges are fully disjoint, so merging
	// must extend the receiver's bucket array and keep both populations.
	lo, _ := NewHistogram(1.3)
	hi, _ := NewHistogram(1.3)
	all, _ := NewHistogram(1.3)
	for i := 1; i <= 100; i++ {
		x := 0.002 * float64(i) // 0.002 .. 0.2 ms
		lo.Add(x)
		all.Add(x)
	}
	for i := 1; i <= 100; i++ {
		x := 1e4 * float64(i) // 1e4 .. 1e6 ms
		hi.Add(x)
		all.Add(x)
	}
	if err := lo.Merge(hi); err != nil {
		t.Fatal(err)
	}
	if lo.Count() != all.Count() || lo.Sum() != all.Sum() {
		t.Errorf("merged count/sum %d/%v, want %d/%v", lo.Count(), lo.Sum(), all.Count(), all.Sum())
	}
	if lo.Min() != 0.002 || lo.Max() != 1e6 {
		t.Errorf("merged min/max %v/%v, want 0.002/1e6", lo.Min(), lo.Max())
	}
	for _, q := range []float64{0, 0.25, 0.49, 0.51, 0.75, 0.99, 1} {
		if lo.Quantile(q) != all.Quantile(q) {
			t.Errorf("Quantile(%v): merged %v != direct-add %v", q, lo.Quantile(q), all.Quantile(q))
		}
	}
	// The median straddles the gap: the p49 estimate stays in the low
	// population, p51 in the high one.
	if p := lo.Quantile(0.49); p > 1 {
		t.Errorf("p49 = %v, expected a low-population value", p)
	}
	if p := lo.Quantile(0.51); p < 1e3 {
		t.Errorf("p51 = %v, expected a high-population value", p)
	}
	// Merging the small-range histogram into the large-range one must give
	// identical quantiles (merge is symmetric in content).
	hi2, _ := NewHistogram(1.3)
	for i := 1; i <= 100; i++ {
		hi2.Add(1e4 * float64(i))
	}
	lo2, _ := NewHistogram(1.3)
	for i := 1; i <= 100; i++ {
		lo2.Add(0.002 * float64(i))
	}
	if err := hi2.Merge(lo2); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if hi2.Quantile(q) != lo.Quantile(q) {
			t.Errorf("Quantile(%v): hi<-lo %v != lo<-hi %v", q, hi2.Quantile(q), lo.Quantile(q))
		}
	}
}

func TestHistogramEmptyAndEdgeCases(t *testing.T) {
	if _, err := NewHistogram(1); err == nil {
		t.Error("growth 1 accepted")
	}
	if _, err := NewHistogram(0.5); err == nil {
		t.Error("growth < 1 accepted")
	}
	h, _ := NewHistogram(1.2)
	if h.Quantile(0.99) != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report finite zeros")
	}
	if s := h.Summary(); s != (Summary{}) {
		t.Errorf("empty histogram Summary = %+v", s)
	}
	h.Add(0) // zero and sub-resolution samples land in the under bucket
	h.Add(-3)
	h.Add(1e-9)
	if h.Count() != 3 || h.Quantile(0.5) != 0 {
		t.Errorf("under-bucket handling: count %d, p50 %v", h.Count(), h.Quantile(0.5))
	}
	empty, _ := NewHistogram(1.2)
	if err := empty.Merge(h); err != nil {
		t.Fatal(err)
	}
	if empty.Count() != 3 || empty.Min() != 0 {
		t.Errorf("merge into empty: %+v", empty.Summary())
	}
}
