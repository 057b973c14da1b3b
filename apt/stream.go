package apt

import (
	"context"
	"fmt"

	"repro/internal/stats"
	"repro/internal/workload"
)

// LatencyStats summarises a latency distribution in milliseconds: count,
// moments, extrema and tail percentiles. The zero value describes an empty
// distribution; every field is finite, so results always JSON-encode.
type LatencyStats = stats.Summary

// GenerateKernelStream builds a stream of n mutually independent kernels
// drawn from the paper's catalog — the purest open-system workload, where
// every kernel is one request and sojourn latency carries no dependency
// wait. The same seed always yields the same stream.
func GenerateKernelStream(n int, seed int64) (*Workload, error) {
	g, err := workload.Independent(n, seed)
	if err != nil {
		return nil, err
	}
	return &Workload{g: g}, nil
}

// StreamShard is one window of an open-system stream: a self-contained
// workload plus the arrival time of each of its kernels. Arrivals may
// carry a global offset; RunStream rebases each shard to start near t = 0,
// which leaves sojourn and queueing-delay metrics unchanged.
type StreamShard struct {
	Workload *Workload
	Arrivals []float64
}

// StreamResult aggregates open-system metrics over every shard of a
// stream run.
type StreamResult struct {
	Policy  string
	Kernels int
	// OfferedPerSec is the arrival rate λ the stream offers over its span:
	// for globally timed shards (trace replay — the concatenated arrivals
	// stay monotone across shard boundaries) the trace's end − start,
	// including inter-window gaps; for independent window replications
	// (MakeStream) the summed in-window spans. It is 0 when the span is 0.
	OfferedPerSec float64
	// Sojourn is the exact arrival→finish distribution over every kernel
	// of every shard.
	Sojourn LatencyStats
	// SojournsMs holds the raw per-kernel sojourn latencies in shard-major,
	// kernel-ID order — input for custom percentiles or histograms.
	SojournsMs []float64
}

// RunStream simulates an open-system stream: every shard runs through the
// same bounded worker pool RunBatch uses (per-worker reusable engines),
// and per-kernel latency metrics aggregate across shards. Shards are
// independent windows of the stream — the steady-state "independent
// replications" view of a long-horizon run — so a multi-thousand-kernel,
// hours-long scenario costs only one window of simulator state at a time.
//
// Each shard runs under the default Options, paced by its own arrivals.
// Every simulation is deterministic, so results are identical across
// reruns and worker counts. Invalid shard arrivals surface as a
// *ConfigError (wrapping an *ArrivalError) indexed by shard.
func RunStream(ctx context.Context, shards []StreamShard, m *Machine, p Policy) (*StreamResult, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("apt: RunStream requires at least one shard")
	}
	if m == nil {
		return nil, fmt.Errorf("apt: RunStream requires a machine")
	}
	cfgs := make([]RunConfig, len(shards))
	for i, sh := range shards {
		if sh.Workload == nil {
			return nil, &ConfigError{Index: i, Err: fmt.Errorf("stream shard has no workload")}
		}
		if err := validateArrivals(sh.Workload.NumKernels(), sh.Arrivals); err != nil {
			return nil, &ConfigError{Index: i, Err: err}
		}
		cfgs[i] = RunConfig{Workload: sh.Workload, Machine: m, Policy: p,
			Options: &Options{Arrivals: rebaseArrivals(sh.Arrivals)}}
	}
	results, err := RunBatch(ctx, cfgs, nil)
	if err != nil {
		return nil, err
	}

	out := &StreamResult{Policy: p.Name()}
	var sojourns []float64
	// Globally timed shards (trace replay) keep their original, pre-rebase
	// timestamps monotone across shard boundaries; then the offered span
	// must include inter-window gaps, not just the summed in-window spans.
	globalTimes := len(shards) > 1
	var sumSpan, firstAt, prevLast float64
	for i, res := range results {
		if arr := shards[i].Arrivals; len(arr) > 0 {
			sumSpan += arr[len(arr)-1] - arr[0]
			if i > 0 && arr[0] < prevLast {
				globalTimes = false
			}
			if i == 0 {
				firstAt = arr[0]
			}
			prevLast = arr[len(arr)-1]
		} else {
			globalTimes = false
		}
		pls := res.res.Placements
		for i := range pls {
			sojourns = append(sojourns, pls[i].Sojourn())
		}
		out.Kernels += len(pls)
	}
	span := sumSpan
	if globalTimes {
		span = prevLast - firstAt
	}
	out.SojournsMs = append([]float64(nil), sojourns...)
	out.Sojourn = stats.SummarizeInPlace(sojourns)
	if span > 0 {
		out.OfferedPerSec = float64(out.Kernels) / span * 1000
	}
	return out, nil
}

// rebaseArrivals shifts a schedule so its first arrival is 0, leaving
// sojourn and queueing metrics unchanged while sparing the simulator the
// idle lead-in of globally offset shards.
func rebaseArrivals(arr []float64) []float64 {
	if len(arr) == 0 || arr[0] == 0 {
		return arr
	}
	out := make([]float64, len(arr))
	for i, at := range arr {
		out[i] = at - arr[0]
	}
	return out
}

// MakeStream builds a synthetic open-system stream: `total` independent
// catalog kernels cut into windows of `window` kernels (default 500).
// Shard s draws its workload from GenerateKernelStream with a per-shard
// seed and its arrival schedule from gen, called with that workload and
// the same per-shard seed — so windows are independent replications of
// the arrival process and the whole stream is reproducible from `seed`.
//
//	shards, _ := apt.MakeStream(5000, 500, 1, func(w *apt.Workload, seed int64) ([]float64, error) {
//	    return apt.PoissonArrivals(w, 2, seed) // λ = 500 kernels/s
//	})
//	res, _ := apt.RunStream(ctx, shards, apt.PaperMachine(4), apt.APT(4))
//	fmt.Println(res.Sojourn.P99)
func MakeStream(total, window int, seed int64, gen func(w *Workload, seed int64) ([]float64, error)) ([]StreamShard, error) {
	if total <= 0 {
		return nil, fmt.Errorf("apt: stream size must be positive, got %d", total)
	}
	if window <= 0 {
		window = 500
	}
	if gen == nil {
		return nil, fmt.Errorf("apt: MakeStream requires an arrival generator")
	}
	var shards []StreamShard
	for off, shard := 0, 0; off < total; off, shard = off+window, shard+1 {
		n := window
		if rest := total - off; rest < n {
			n = rest
		}
		shardSeed := seed + int64(shard)*1_000_003
		w, err := GenerateKernelStream(n, shardSeed)
		if err != nil {
			return nil, err
		}
		arr, err := gen(w, shardSeed)
		if err != nil {
			return nil, fmt.Errorf("apt: stream shard %d arrivals: %w", shard, err)
		}
		shards = append(shards, StreamShard{Workload: w, Arrivals: arr})
	}
	return shards, nil
}

// TraceStream replays a recorded arrival trace as an open-system stream:
// the timestamps are cut into windows of `window` consecutive entries
// (default 500), each paired with an independent-kernel workload of
// matching size generated from a per-shard seed. RunStream rebases each
// window, so inter-window gaps in the trace cost no simulated idle time.
func TraceStream(times []float64, window int, seed int64) ([]StreamShard, error) {
	if len(times) == 0 {
		return nil, fmt.Errorf("apt: empty arrival trace")
	}
	if window <= 0 {
		window = 500
	}
	var shards []StreamShard
	for off, shard := 0, 0; off < len(times); off, shard = off+window, shard+1 {
		end := off + window
		if end > len(times) {
			end = len(times)
		}
		w, err := GenerateKernelStream(end-off, seed+int64(shard)*1_000_003)
		if err != nil {
			return nil, err
		}
		shards = append(shards, StreamShard{Workload: w, Arrivals: times[off:end]})
	}
	return shards, nil
}
