package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/dfg"
)

// PoissonArrivals paces a workload as a streaming submission: kernels
// arrive in ID (stream) order separated by exponentially distributed gaps
// with the given mean, modelling the thesis's framing of the input as "a
// stream of applications" whose tasks the scheduler sees "as and when they
// arrive". Because generators emit dependency edges forward in ID order, a
// kernel never arrives before its predecessors.
//
// The thesis itself submits whole streams at t = 0; pacing is this
// repository's extension (the README's streaming section discusses its effect on λ).
func PoissonArrivals(g *dfg.Graph, meanGapMs float64, seed int64) ([]float64, error) {
	if meanGapMs < 0 {
		return nil, fmt.Errorf("workload: negative mean arrival gap %v", meanGapMs)
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, g.NumKernels())
	t := 0.0
	for i := range out {
		if meanGapMs > 0 {
			t += r.ExpFloat64() * meanGapMs
		}
		out[i] = t
	}
	return out, nil
}

// PeriodicArrivals paces a workload with a fixed gap between consecutive
// kernels in stream order. A zero gap reproduces the thesis's
// all-at-time-zero submission.
func PeriodicArrivals(g *dfg.Graph, gapMs float64) ([]float64, error) {
	if gapMs < 0 {
		return nil, fmt.Errorf("workload: negative arrival gap %v", gapMs)
	}
	out := make([]float64, g.NumKernels())
	for i := range out {
		out[i] = float64(i) * gapMs
	}
	return out, nil
}

// BurstyConfig shapes BurstyArrivals' Markov-modulated on/off process.
type BurstyConfig struct {
	// BurstGapMs is the mean arrival gap while a burst is on (Poisson
	// within the burst; 0 degenerates to the thesis's all-at-time-zero
	// submission).
	BurstGapMs float64
	// BurstMs is the mean duration of a burst (on state, > 0).
	BurstMs float64
	// IdleMs is the mean duration of the silence between bursts (off
	// state; 0 degenerates to plain Poisson arrivals).
	IdleMs float64
}

// BurstyArrivals paces a workload with a Markov-modulated on/off arrival
// process: kernels arrive as a Poisson stream with mean gap BurstGapMs
// while the source is on, and not at all while it is off; on and off
// periods have exponentially distributed durations with means BurstMs and
// IdleMs. This is the classic bursty-traffic model sustained services face
// — the same offered rate as a Poisson stream of equal average gap, but
// concentrated into bursts that stress queue depth and tail latency.
// Arrivals are in stream (ID) order and non-decreasing; the same seed
// always yields the same schedule.
func BurstyArrivals(g *dfg.Graph, cfg BurstyConfig, seed int64) ([]float64, error) {
	if cfg.BurstGapMs < 0 {
		return nil, fmt.Errorf("workload: negative burst arrival gap %v", cfg.BurstGapMs)
	}
	if cfg.BurstMs <= 0 {
		return nil, fmt.Errorf("workload: burst duration must be positive, got %v", cfg.BurstMs)
	}
	if cfg.IdleMs < 0 {
		return nil, fmt.Errorf("workload: negative idle duration %v", cfg.IdleMs)
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, g.NumKernels())
	t := 0.0
	burstLeft := r.ExpFloat64() * cfg.BurstMs
	for i := range out {
		gap := 0.0
		if cfg.BurstGapMs > 0 {
			gap = r.ExpFloat64() * cfg.BurstGapMs
		}
		// Walk the leftover gap across as many burst/idle cycles as it
		// spans: arrival gaps only accumulate while the source is on.
		for cfg.IdleMs > 0 && gap > burstLeft {
			gap -= burstLeft
			t += burstLeft
			t += r.ExpFloat64() * cfg.IdleMs
			burstLeft = r.ExpFloat64() * cfg.BurstMs
		}
		t += gap
		burstLeft -= gap
		out[i] = t
	}
	return out, nil
}

// DiurnalConfig shapes DiurnalArrivals' sinusoidally modulated rate.
type DiurnalConfig struct {
	// MeanGapMs is the mean arrival gap at the average rate (> 0).
	MeanGapMs float64
	// PeriodMs is the length of one rate cycle (> 0), e.g. a scaled-down
	// day.
	PeriodMs float64
	// Amplitude is the relative swing of the rate around its mean, in
	// [0, 1): rate(t) = (1 + Amplitude·sin(2πt/PeriodMs)) / MeanGapMs.
	Amplitude float64
}

// DiurnalArrivals paces a workload with a non-homogeneous Poisson process
// whose rate follows a sinusoidal "time of day" cycle, generated by
// thinning against the peak rate. Arrivals are in stream order and
// non-decreasing; the same seed always yields the same schedule.
func DiurnalArrivals(g *dfg.Graph, cfg DiurnalConfig, seed int64) ([]float64, error) {
	if cfg.MeanGapMs <= 0 {
		return nil, fmt.Errorf("workload: diurnal mean gap must be positive, got %v", cfg.MeanGapMs)
	}
	if cfg.PeriodMs <= 0 {
		return nil, fmt.Errorf("workload: diurnal period must be positive, got %v", cfg.PeriodMs)
	}
	if cfg.Amplitude < 0 || cfg.Amplitude >= 1 {
		return nil, fmt.Errorf("workload: diurnal amplitude must be in [0, 1), got %v", cfg.Amplitude)
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, g.NumKernels())
	peakGap := cfg.MeanGapMs / (1 + cfg.Amplitude)
	t := 0.0
	for i := range out {
		for {
			t += r.ExpFloat64() * peakGap
			accept := (1 + cfg.Amplitude*math.Sin(2*math.Pi*t/cfg.PeriodMs)) / (1 + cfg.Amplitude)
			if r.Float64() <= accept {
				break
			}
		}
		out[i] = t
	}
	return out, nil
}

// ReadTrace parses a timestamp trace: one non-negative, non-decreasing
// millisecond value per line, with blank lines and '#' comments skipped.
func ReadTrace(r io.Reader) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("workload: trace line %d: invalid timestamp %v", line, v)
		}
		if len(out) > 0 && v < out[len(out)-1] {
			return nil, fmt.Errorf("workload: trace line %d: timestamp %v precedes %v (trace must be non-decreasing)",
				line, v, out[len(out)-1])
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: trace read: %w", err)
	}
	return out, nil
}

// Independent builds a stream of n mutually independent kernels drawn from
// the paper catalog — the purest open-system workload, where every kernel
// is one request and sojourn latency carries no dependency wait. The same
// seed always yields the same stream.
func Independent(n int, seed int64) (*dfg.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: stream size must be positive, got %d", n)
	}
	cat := PaperCatalog()
	series := cat.RandomSeries(rand.New(rand.NewSource(seed)), n)
	b := dfg.NewBuilder()
	for _, s := range series {
		addSpec(b, s, 0)
	}
	return b.Build()
}
