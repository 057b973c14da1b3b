package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dfg"
)

// ScaleLayeredConfig tunes BuildScaleLayered, the bounded-fan-in layered
// random DAG family used for large-scale (10k–100k kernel) workloads.
// Rather than a per-pair edge probability — O(width²) edges on wide layers
// — every non-entry kernel draws at most FanIn distinct predecessors from
// the previous layer, so edge count grows linearly in kernel count and
// 100k-kernel graphs build in milliseconds.
type ScaleLayeredConfig struct {
	// Layers is the number of dependency levels (>= 1).
	Layers int
	// FanIn is the maximum number of predecessors drawn per non-entry
	// kernel (>= 1); the effective fan-in is capped by the previous layer's
	// width.
	FanIn int
}

// DefaultScaleLayeredConfig returns 32 layers with fan-in 3.
func DefaultScaleLayeredConfig() ScaleLayeredConfig { return ScaleLayeredConfig{Layers: 32, FanIn: 3} }

// BuildScaleLayered arranges a series into a bounded-fan-in layered DAG:
// kernels spread contiguously across cfg.Layers layers, and each non-entry
// kernel depends on min(cfg.FanIn, prev-layer width) distinct kernels of
// the previous layer, drawn uniformly at random. Deterministic per rng.
func BuildScaleLayered(series []KernelSpec, cfg ScaleLayeredConfig, r *rand.Rand) (*dfg.Graph, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("workload: scale-layered series is empty")
	}
	if cfg.Layers <= 0 {
		return nil, fmt.Errorf("workload: layers must be positive, got %d", cfg.Layers)
	}
	if cfg.FanIn <= 0 {
		return nil, fmt.Errorf("workload: fan-in must be positive, got %d", cfg.FanIn)
	}
	if cfg.Layers > len(series) {
		cfg.Layers = len(series)
	}
	b := dfg.NewBuilder()
	layers := make([][]dfg.KernelID, cfg.Layers)
	for i, s := range series {
		l := i * cfg.Layers / len(series) // contiguous stream order per layer
		layers[l] = append(layers[l], addSpec(b, s, l))
	}
	// pick holds the previous layer's indices; a partial Fisher–Yates draw
	// selects FanIn distinct predecessors without rebuilding the slice.
	var pick []int
	for l := 1; l < cfg.Layers; l++ {
		prev := layers[l-1]
		fanIn := cfg.FanIn
		if fanIn > len(prev) {
			fanIn = len(prev)
		}
		if cap(pick) < len(prev) {
			pick = make([]int, len(prev))
		}
		pick = pick[:len(prev)]
		for i := range pick {
			pick[i] = i
		}
		for _, kid := range layers[l] {
			for j := 0; j < fanIn; j++ {
				swap := j + r.Intn(len(prev)-j)
				pick[j], pick[swap] = pick[swap], pick[j]
				b.AddEdge(prev[pick[j]], kid)
			}
		}
	}
	return b.Build()
}

// ForkJoinConfig tunes BuildForkJoin, the fork-join mesh family: a chain
// of stages, each forking one kernel into Width parallel kernels that join
// into the next stage's fork kernel.
type ForkJoinConfig struct {
	// Width is the number of parallel kernels per stage (>= 1).
	Width int
}

// DefaultForkJoinConfig returns width-64 stages.
func DefaultForkJoinConfig() ForkJoinConfig { return ForkJoinConfig{Width: 64} }

// BuildForkJoin arranges a series into a fork-join mesh: kernels are
// consumed in stream order as repeating blocks of one fork kernel followed
// by up to cfg.Width parallel kernels; the parallel kernels of each stage
// all feed the next stage's fork kernel, which chains stages together.
// The trailing partial block joins into nothing, leaving its parallel
// kernels as exits. Deterministic (no randomness beyond the series).
func BuildForkJoin(series []KernelSpec, cfg ForkJoinConfig) (*dfg.Graph, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("workload: fork-join series is empty")
	}
	if cfg.Width <= 0 {
		return nil, fmt.Errorf("workload: fork-join width must be positive, got %d", cfg.Width)
	}
	b := dfg.NewBuilder()
	block := cfg.Width + 1
	var prevParallel []dfg.KernelID
	stage := 0
	for off := 0; off < len(series); off += block {
		end := off + block
		if end > len(series) {
			end = len(series)
		}
		fork := addSpec(b, series[off], stage)
		for _, p := range prevParallel {
			b.AddEdge(p, fork)
		}
		parallel := make([]dfg.KernelID, 0, end-off-1)
		for i := off + 1; i < end; i++ {
			kid := addSpec(b, series[i], stage)
			b.AddEdge(fork, kid)
			parallel = append(parallel, kid)
		}
		// A width-0 trailing stage keeps the chain on the fork kernel itself.
		if len(parallel) == 0 {
			parallel = append(parallel, fork)
		}
		prevParallel = parallel
		stage++
	}
	return b.Build()
}

// ScaleSeries draws n random catalog specs for the large-scale builders,
// deterministic per seed.
func ScaleSeries(n int, seed int64) ([]KernelSpec, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: series size must be positive, got %d", n)
	}
	cat := PaperCatalog()
	return cat.RandomSeries(rand.New(rand.NewSource(seed)), n), nil
}
