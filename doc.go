// Package repro reproduces "Alternative Processor within Threshold:
// Flexible Scheduling on Heterogeneous Systems" (S. S. Karia, M.S. thesis,
// Rochester Institute of Technology, March 2017).
//
// The public API lives in repro/apt: apt.Run simulates one workload on one
// machine under one policy, and apt.RunBatch fans a slice of run configs
// across a bounded worker pool with per-worker reusable engine state —
// deterministically, so batch results are identical to sequential runs.
//
// Beyond the thesis's closed-batch model, the streaming API evaluates
// open systems: arrival shapes (apt.PoissonArrivals, apt.BurstyArrivals,
// apt.DiurnalArrivals, apt.TraceArrivals) pace a stream, every result
// reports per-kernel sojourn and queueing-delay percentiles
// (Result.Sojourn, Result.QueueWait), and apt.RunStream shards a
// long-horizon stream into windows across the same worker pool,
// aggregating exact latency distributions — see the λ-vs-p99 quickstart
// in README.md and the `sweep -stream` command.
//
// The robustness API drops the thesis's exact-estimate assumption:
// apt.Options.Perturb injects seeded estimate-error noise (uniform,
// log-normal, stale-table drift, per-kind bias) and dynamic platform
// degradation (processor slowdowns and outages, link bandwidth loss) into
// the engine's actual-time path while policies keep deciding with the
// clean lookup table. apt.RunRobustness sweeps noise magnitude × policy
// and reports each policy's regret against the perfect-information oracle
// — `sweep -robust` runs the same sweep from the command line; interpret
// regret as the makespan paid purely for deciding on wrong estimates (see
// README.md's robustness section).
//
// The serving layer carries the rule out of simulation: repro/online is a
// sharded live scheduler that places real Go functions with Algorithm 1 —
// a lock-free striped submit path, a bounded admission queue with
// backpressure (ErrQueueFull / blocking SubmitCtx), SubmitGraph releasing
// dependent tasks as predecessors finish, live sojourn and queueing-delay
// percentiles, and optional α auto-tuning from observed regret — and
// cmd/aptserve exposes it over a versioned HTTP/JSON API (POST /v1/submit,
// POST /v1/graph, GET /v1/stats, /v1/metrics, /v1/healthz and more) with
// graceful drain. The apt package
// re-exports the live telemetry types (LiveStats, LiveLatency); see
// docs/ARCHITECTURE.md for how the two runtimes share one data layer.
//
// The simulator, policies and paper experiment harness live under
// repro/internal. The benchmarks in this directory regenerate every table
// and figure of the thesis's evaluation chapter; see docs/ARCHITECTURE.md
// for the system map and README.md for the package map and quickstart.
package repro
